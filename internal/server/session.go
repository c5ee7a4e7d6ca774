package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sampleview"
)

// servedStream is one open stream of one session. The underlying view
// stream (unsharded or sharded) is internally synchronized, so the request
// path and the idle reaper may race on it freely; lastActive and simSeen
// are atomics for the same reason.
type servedStream struct {
	id   uint32
	view *servedView
	s    ViewStream
	// lastActive is the view's simulated time (nanoseconds) when the stream
	// last served a request; the reaper compares it against the view's
	// current simulated clock.
	lastActive atomic.Int64
	// simSeen is the portion of the stream's own simulated I/O time already
	// folded into the session and server counters.
	simSeen atomic.Int64
	// pos is the stream's position: records served (or skipped by a seeded
	// open's fast-forward) so far. Exported in every batch response — it is
	// the canonical resume point a fleet router migrates and hedges on.
	pos atomic.Int64

	// deferredMu guards deferred.
	deferredMu sync.Mutex
	// deferred is a hard stream failure observed while a partial batch was
	// being delivered; it is surfaced as a typed error frame on the
	// stream's next request so the records already sampled are never
	// dropped and the failure is never lost.
	deferred error // guarded by deferredMu
}

// stashErr defers a stream failure to the stream's next request.
func (st *servedStream) stashErr(err error) {
	st.deferredMu.Lock()
	st.deferred = err
	st.deferredMu.Unlock()
}

// takeErr pops the deferred failure, if any.
func (st *servedStream) takeErr() error {
	st.deferredMu.Lock()
	defer st.deferredMu.Unlock()
	err := st.deferred
	st.deferred = nil
	return err
}

// touch stamps the stream as active now (in its view's simulated time).
func (st *servedStream) touch() { st.lastActive.Store(int64(st.view.v.SimNow())) }

// chargeSim folds the stream's not-yet-accounted simulated I/O time into
// the session and server counters and returns the delta.
func (st *servedStream) chargeSim(sess *session) {
	now := int64(st.s.SimNow())
	prev := st.simSeen.Swap(now)
	if d := now - prev; d > 0 {
		sess.counters.SimIONanos.Add(d)
		sess.srv.stats.SimIONanos.Add(d)
	}
}

// session is the per-connection server state: the stream registry, the
// per-session counter slice, and the drain handshake with Shutdown.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn

	// busy is held for the full handling of one request, from after the
	// frame is read until the response is flushed. Shutdown's drainClose
	// acquires it before severing the connection, which is what guarantees
	// an in-flight batch is fully written ("acknowledged") or not written
	// at all — never truncated.
	busy sync.Mutex

	mu         sync.Mutex
	streams    map[uint32]*servedStream // guarded by mu
	reaped     map[uint32]struct{}      // guarded by mu; tombstones for typed errors
	nextStream uint32                   // guarded by mu
	// tenant is the name this session's quota usage is attributed to, set
	// once by a set-tenant frame before any stream opens; empty sessions
	// fall back to a per-connection accounting key.
	tenant string // guarded by mu

	// wbuf is the connection's one write buffer: every response frame is
	// encoded into it, in place, and written from it. Only the goroutine
	// serving the connection touches it.
	wbuf []byte

	counters sessionCounters
}

// tenantKey returns the session's admission accounting key and whether it
// is a named tenant (as opposed to the per-connection fallback).
func (sess *session) tenantKey() (string, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.tenant != "" {
		return tenantKeyFor(sess.tenant), true
	}
	return fmt.Sprintf("conn:%d", sess.id), false
}

// countingConn counts bytes crossing the wire into both the session's and
// the server's counters.
type countingConn struct {
	net.Conn
	sess *session
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.sess.counters.BytesRead.Add(int64(n))
		c.sess.srv.stats.BytesRead.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.sess.counters.BytesWritten.Add(int64(n))
		c.sess.srv.stats.BytesWritten.Add(int64(n))
	}
	return n, err
}

// serveConn runs one connection's request loop until the peer disconnects,
// a protocol error occurs, or the server drains.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()
	sess := &session{
		srv:     s,
		conn:    nc,
		streams: make(map[uint32]*servedStream),
		reaped:  make(map[uint32]struct{}),
	}
	if !s.register(sess) {
		// Raced with Shutdown: refuse politely and hang up.
		s.stats.ConnsRejected.Add(1)
		cc := &countingConn{Conn: nc, sess: sess}
		frame, _ := AppendFrame(nil, FError, ErrorResp{Code: CodeShuttingDown, Msg: "server shutting down"}.Encode())
		_, _ = cc.Write(frame) // best effort: the peer is being turned away either way
		return
	}
	defer s.unregister(sess)

	cc := &countingConn{Conn: nc, sess: sess}
	// One reader per connection: it arms the per-request deadline the moment
	// a frame header arrives — from then on the payload read, the handling
	// and the response write all race the same RequestTimeout budget.
	// Waiting for the *next* header is deliberately unbounded: an idle
	// keep-alive connection is not a stalled request.
	fr := NewFrameReader(cc)
	fr.OnHeader = sess.armDeadline
	for {
		t, body, err := fr.Next()
		if err != nil {
			// Only protocol violations count as bad frames; disconnects and
			// drain-triggered closes are ordinary transport events.
			if errors.Is(err, errFrameLength) {
				s.stats.BadFrames.Add(1)
			}
			return
		}
		sess.busy.Lock()
		s.inFlight.Add(1)
		frame, werr := sess.respond(t, body)
		if werr == nil {
			_, werr = cc.Write(frame)
		}
		idle := s.inFlight.Add(-1) == 0
		sess.busy.Unlock()
		if werr != nil {
			return
		}
		sess.clearDeadline()
		if s.isDraining() {
			return
		}
		if idle {
			// The burst just drained: give the catalog's background jobs
			// (compaction, checksum scrubs) their window.
			s.runMaintenance()
		}
	}
}

// respond handles one request and returns the response frame, encoded in
// place in the connection's write buffer and valid until the next response.
func (sess *session) respond(t FrameType, body []byte) ([]byte, error) {
	if t == FNextBatch {
		return sess.handleNextBatch(body)
	}
	return sess.frame(sess.handle(t, body))
}

// frame encodes a response whose body a handler built on its own.
func (sess *session) frame(t FrameType, body []byte) ([]byte, error) {
	frame, err := AppendFrame(sess.wbuf[:0], t, body)
	return sess.keep(frame), err
}

// batchFrame encodes a batch response — the one response of any size —
// header and body at once, each record marshalled where it goes out from.
func (sess *session) batchFrame(m BatchResp) ([]byte, error) {
	frame := m.AppendTo(append(sess.wbuf[:0], 0, 0, 0, 0, byte(FBatch)))
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-headerSize))
	return sess.keep(frame), nil
}

// keep makes frame's memory the connection's write buffer, unless the frame
// was one of the rare ones past KeepBuf.
func (sess *session) keep(frame []byte) []byte {
	if cap(frame) <= KeepBuf {
		sess.wbuf = frame
	}
	return frame
}

// armDeadline sets the connection's absolute I/O deadline RequestTimeout
// from now. The deadline is wall clock by design: it defends the serving
// loop against peers that stall mid-frame or stop draining responses,
// failure modes the simulated disk clock cannot observe.
func (sess *session) armDeadline() {
	if d := sess.srv.cfg.RequestTimeout; d > 0 {
		_ = sess.conn.SetDeadline(time.Now().Add(d))
	}
}

// clearDeadline removes the per-request wall clock deadline once the
// response has been flushed.
func (sess *session) clearDeadline() {
	if sess.srv.cfg.RequestTimeout > 0 {
		_ = sess.conn.SetDeadline(time.Time{})
	}
}

// drainClose severs the session's connection once no request is in flight.
func (sess *session) drainClose() {
	sess.busy.Lock()
	sess.conn.Close()
	sess.busy.Unlock()
}

// handle dispatches one request frame and returns the response frame.
func (sess *session) handle(t FrameType, body []byte) (FrameType, []byte) {
	switch t {
	case FOpenView:
		return sess.handleOpenView(body)
	case FOpenStream:
		return sess.handleOpenStream(body)
	case FEstimate:
		return sess.handleEstimate(body)
	case FCancel:
		return sess.handleCancel(body)
	case FAppend, FDeleteRecs:
		return sess.handleWrite(t, body)
	case FFlushView:
		return sess.handleFlushView(body)
	case FSetTenant:
		return sess.handleSetTenant(body)
	case FReplicaInfo:
		if len(body) != 0 {
			sess.srv.stats.BadFrames.Add(1)
			return reject(sess, CodeBadRequest, errTrailing.Error())
		}
		return FReplicaInfoResult, sess.srv.replicaInfo().Encode()
	case FListViews:
		if len(body) != 0 {
			sess.srv.stats.BadFrames.Add(1)
			return reject(sess, CodeBadRequest, errTrailing.Error())
		}
		return FViewList, ViewListResp{Views: sess.srv.listViews()}.Encode()
	case FStats:
		return FStatsResult, sess.srv.Snapshot().Encode()
	default:
		sess.srv.stats.BadFrames.Add(1)
		return reject(sess, CodeBadRequest, "unknown frame type "+t.String())
	}
}

// reject builds a typed error response, counting it against the session.
func reject(sess *session, code uint16, msg string) (FrameType, []byte) {
	sess.counters.Rejections.Add(1)
	return FError, ErrorResp{Code: code, Msg: msg}.Encode()
}

// classifyStreamErr maps a view-layer stream failure to its wire code,
// counting fault frames in the server stats.
func (sess *session) classifyStreamErr(err error) uint16 {
	switch {
	case sampleview.IsTransient(err):
		sess.srv.stats.TransientErrors.Add(1)
		return CodeTransient
	case sampleview.IsDegraded(err):
		sess.srv.stats.DegradedErrors.Add(1)
		return CodeDegraded
	default:
		return CodeInternal
	}
}

func (sess *session) handleOpenView(body []byte) (FrameType, []byte) {
	req, err := DecodeOpenViewReq(body)
	if err != nil {
		sess.srv.stats.BadFrames.Add(1)
		return reject(sess, CodeBadRequest, err.Error())
	}
	sv, ok := sess.srv.lookupView(req.Name)
	if !ok {
		return reject(sess, CodeUnknownView, "no served view named "+req.Name)
	}
	return FViewInfo, ViewInfo{
		ViewID: sv.id,
		Dims:   uint8(sv.v.Dims()),
		Height: uint8(sv.v.Height()),
		Count:  sv.v.Count(),
	}.Encode()
}

func (sess *session) handleSetTenant(body []byte) (FrameType, []byte) {
	req, err := DecodeSetTenantReq(body)
	if err != nil {
		sess.srv.stats.BadFrames.Add(1)
		return reject(sess, CodeBadRequest, err.Error())
	}
	if req.Tenant == "" {
		return reject(sess, CodeBadRequest, "empty tenant name")
	}
	sess.mu.Lock()
	switch {
	case sess.tenant == req.Tenant:
		sess.mu.Unlock() // idempotent re-attribution
		return FTenantOK, SetTenantReq{Tenant: req.Tenant}.Encode()
	case sess.tenant != "":
		sess.mu.Unlock()
		return reject(sess, CodeBadRequest, "connection already attributed to tenant "+sess.tenant)
	case sess.nextStream > 0:
		// Streams (and their quota slots) were already accounted under the
		// per-connection key; re-attributing them mid-flight would corrupt
		// both tallies.
		sess.mu.Unlock()
		return reject(sess, CodeBadRequest, "set-tenant must precede the connection's first stream")
	}
	sess.tenant = req.Tenant
	sess.mu.Unlock()
	sess.srv.attributeTenant(req.Tenant)
	return FTenantOK, SetTenantReq{Tenant: req.Tenant}.Encode()
}

func (sess *session) handleOpenStream(body []byte) (FrameType, []byte) {
	req, err := DecodeOpenStreamReq(body)
	if err != nil {
		sess.srv.stats.BadFrames.Add(1)
		return reject(sess, CodeBadRequest, err.Error())
	}
	sv, ok := sess.srv.lookupViewID(req.ViewID)
	if !ok {
		return reject(sess, CodeUnknownView, "unknown view id")
	}
	if req.Query.Dims() != sv.v.Dims() {
		return reject(sess, CodeBadRequest, "query dimensions do not match the view")
	}
	var seeded SeededSource
	if req.Seeded {
		if seeded, ok = sv.v.(SeededSource); !ok {
			return reject(sess, CodeBadRequest, "view "+sv.name+" does not support seeded streams")
		}
	}

	key, _ := sess.tenantKey()
	code, ok := sess.srv.admitStream(key)
	if !ok && code == CodeServerStreams {
		// The server-wide cap is the one moment idle streams matter: reap
		// abandoned ones and retry, so a saturated server sheds dead weight
		// before rejecting live traffic. Reaping never runs uncontended —
		// under heavy fan-in the shared simulated clock races far ahead of
		// any single stream's activity, and an unconditional sweep would
		// collect streams that are merely waiting their turn.
		sess.srv.reapIdle()
		code, ok = sess.srv.admitStream(key)
	}
	if !ok {
		switch code {
		case CodeServerStreams:
			sess.srv.stats.RejectedServer.Add(1)
			return reject(sess, code, "server stream limit reached")
		case CodeTenantStreams:
			sess.srv.stats.RejectedTenant.Add(1)
			return reject(sess, code, "tenant stream limit reached")
		default:
			sess.srv.stats.RejectedDrain.Add(1)
			return reject(sess, code, "server shutting down")
		}
	}
	if !sess.claimConnSlot() {
		sess.srv.releaseStreams(key, 1)
		sess.srv.stats.RejectedConn.Add(1)
		return reject(sess, CodeConnStreams, "connection stream limit reached")
	}

	var stream ViewStream
	if req.Seeded {
		stream, err = seeded.OpenStreamSeeded(req.Query, req.Seed)
	} else {
		stream, err = sv.v.OpenStream(req.Query)
	}
	if err != nil {
		sess.srv.releaseStreams(key, 1)
		// Opening a stream on a view with a live write path scans delta
		// pages, so storage faults can strike here too: type them the same
		// way batch failures are, so clients retry transients and tolerate
		// degradation instead of treating the open as a server bug.
		return reject(sess, sess.classifyStreamErr(err), err.Error())
	}
	st := &servedStream{view: sv, s: stream}
	if req.Seeded && req.StartPos > 0 {
		// A migrated or hedged stream resumes mid-sequence: fast-forward
		// past the prefix the client already holds before registering the
		// stream. A failure here closes the stream and surfaces typed, so
		// the router can retry the open elsewhere.
		if err := st.skipTo(req.StartPos); err != nil {
			st.s.Close()
			sess.srv.releaseStreams(key, 1)
			return reject(sess, sess.classifyStreamErr(err), err.Error())
		}
	}
	st.touch()
	sess.mu.Lock()
	sess.nextStream++
	st.id = sess.nextStream
	sess.streams[st.id] = st
	sess.mu.Unlock()
	sess.counters.StreamsOpened.Add(1)
	sess.srv.stats.StreamsOpened.Add(1)
	return FStreamOpened, StreamOpened{StreamID: st.id}.Encode()
}

// skipTo fast-forwards the stream to position target by sampling and
// discarding. Positions already passed are never revisited; a predicate
// that exhausts before target simply leaves the stream at its end. The
// position advances through partial progress, so a transient fault leaves
// the skip resumable exactly where it struck.
func (st *servedStream) skipTo(target int64) error {
	for {
		cur := st.pos.Load()
		if cur >= target {
			return nil
		}
		// The stream lends its batch buffer and keeps it: skip batch-sized.
		chunk := min(target-cur, 512)
		recs, err := st.s.Sample(int(chunk))
		st.pos.Add(int64(len(recs)))
		if err != nil {
			return err
		}
		if int64(len(recs)) < chunk {
			return nil // exhausted before target
		}
	}
}

// claimConnSlot reports whether the connection has a stream slot free (slots
// are tracked by the stream map's size, so there is nothing to give back).
func (sess *session) claimConnSlot() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return len(sess.streams) < sess.srv.cfg.MaxStreamsPerConn
}

func (sess *session) lookupStream(id uint32) (*servedStream, bool, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st, ok := sess.streams[id]
	_, wasReaped := sess.reaped[id]
	return st, ok, wasReaped
}

// removeStream unregisters a stream, optionally leaving a reaped tombstone,
// and reports whether it was present.
func (sess *session) removeStream(id uint32, asReaped bool) (*servedStream, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st, ok := sess.streams[id]
	if !ok {
		return nil, false
	}
	delete(sess.streams, id)
	if asReaped {
		sess.reaped[id] = struct{}{}
	}
	return st, true
}

// handleNextBatch serves one batch pull. The records Sample returns are lent
// by the stream until its next Sample, and are encoded into the response
// frame before this returns — the only use made of them.
func (sess *session) handleNextBatch(body []byte) ([]byte, error) {
	req, err := DecodeNextBatchReq(body)
	if err != nil {
		sess.srv.stats.BadFrames.Add(1)
		return sess.frame(reject(sess, CodeBadRequest, err.Error()))
	}
	st, ok, wasReaped := sess.lookupStream(req.StreamID)
	if !ok {
		if wasReaped {
			return sess.frame(reject(sess, CodeStreamReaped, "stream reaped after simulated-clock idle timeout"))
		}
		return sess.frame(reject(sess, CodeUnknownStream, "unknown stream id"))
	}
	if derr := st.takeErr(); derr != nil {
		return sess.frame(reject(sess, sess.classifyStreamErr(derr), derr.Error()))
	}
	if req.Pos >= 0 {
		// Position-checked pull: samples are served exactly once, so a
		// request behind the stream is unservable — the caller must reopen
		// at the position it wants. A request ahead of the stream (the
		// losing half of a hedged pair, reconciling) fast-forwards: the
		// skipped records were already delivered by the other replica.
		cur := st.pos.Load()
		if req.Pos < cur {
			return sess.frame(reject(sess, CodeStreamPosition, fmt.Sprintf(
				"stream at position %d, requested position %d is behind it", cur, req.Pos)))
		}
		if req.Pos > cur {
			if err := st.skipTo(req.Pos); err != nil {
				st.chargeSim(sess)
				st.touch()
				if errors.Is(err, sampleview.ErrStreamClosed) {
					sess.removeStream(req.StreamID, true)
					return sess.frame(reject(sess, CodeStreamReaped, "stream reaped after simulated-clock idle timeout"))
				}
				return sess.frame(reject(sess, sess.classifyStreamErr(err), err.Error()))
			}
		}
	}
	max := int(req.Max)
	if max <= 0 || max > sess.srv.cfg.MaxBatch {
		max = sess.srv.cfg.MaxBatch
	}
	recs, err := st.s.Sample(max)
	st.chargeSim(sess)
	st.touch()
	pos := st.pos.Add(int64(len(recs)))
	if err != nil {
		if errors.Is(err, sampleview.ErrStreamClosed) {
			// Lost a race with the reaper between lookup and Sample.
			sess.removeStream(req.StreamID, true)
			return sess.frame(reject(sess, CodeStreamReaped, "stream reaped after simulated-clock idle timeout"))
		}
		if len(recs) == 0 {
			return sess.frame(reject(sess, sess.classifyStreamErr(err), err.Error()))
		}
		// A partial batch rode ahead of the failure. Deliver it — the
		// records are valid and acknowledged batches must never be dropped.
		// A transient fault needs nothing more: the stream made no further
		// progress and the next pull resumes at the faulted stab. A hard
		// failure is stashed so the typed error surfaces on the stream's
		// next request instead of vanishing.
		if !sampleview.IsTransient(err) {
			st.stashErr(err)
		}
		sess.counters.Batches.Add(1)
		sess.counters.Records.Add(int64(len(recs)))
		sess.srv.stats.BatchesServed.Add(1)
		sess.srv.stats.RecordsServed.Add(int64(len(recs)))
		return sess.batchFrame(BatchResp{StreamID: req.StreamID, EOF: false, Records: recs, Pos: pos})
	}
	eof := len(recs) < max
	if eof {
		// The predicate is exhausted: retire the stream and free its
		// admission slot without waiting for a cancel.
		if _, ok := sess.removeStream(req.StreamID, false); ok {
			st.s.Close()
			sess.counters.StreamsClosed.Add(1)
			sess.srv.stats.StreamsClosed.Add(1)
			key, _ := sess.tenantKey()
			sess.srv.releaseStreams(key, 1)
		}
	}
	sess.counters.Batches.Add(1)
	sess.counters.Records.Add(int64(len(recs)))
	sess.srv.stats.BatchesServed.Add(1)
	sess.srv.stats.RecordsServed.Add(int64(len(recs)))
	return sess.batchFrame(BatchResp{StreamID: req.StreamID, EOF: eof, Records: recs, Pos: pos})
}

func (sess *session) handleEstimate(body []byte) (FrameType, []byte) {
	req, err := DecodeEstimateReq(body)
	if err != nil {
		sess.srv.stats.BadFrames.Add(1)
		return reject(sess, CodeBadRequest, err.Error())
	}
	sv, ok := sess.srv.lookupViewID(req.ViewID)
	if !ok {
		return reject(sess, CodeUnknownView, "unknown view id")
	}
	if req.Query.Dims() != sv.v.Dims() {
		return reject(sess, CodeBadRequest, "query dimensions do not match the view")
	}
	est, err := sv.v.EstimateCount(req.Query)
	if err != nil {
		return reject(sess, sess.classifyStreamErr(err), err.Error())
	}
	sess.srv.stats.EstimatesServed.Add(1)
	return FEstimateResult, EstimateResp{Count: est}.Encode()
}

// admitWrite runs write-path admission for n incoming entries against sv:
// the source must be writable, and its in-memory buffer (records plus
// pending tombstones) must have room under the server's backlog cap. It
// returns the writable surface, or a rejection code and message.
func (sess *session) admitWrite(sv *servedView, n int) (WritableSource, uint16, string) {
	w, ok := sv.v.(WritableSource)
	if !ok {
		return nil, CodeReadOnly, "view " + sv.name + " is read-only"
	}
	if n > 0 {
		ws := w.WriteStats()
		backlog := ws.MemViewRecords + ws.MemViewTombstones
		if backlog+int64(n) > int64(sess.srv.cfg.MaxWriteBacklog) {
			return nil, CodeWriteBacklog, fmt.Sprintf(
				"write backlog %d + batch %d over cap %d; flush pending", backlog, n, sess.srv.cfg.MaxWriteBacklog)
		}
	}
	return w, 0, ""
}

// rejectWrite is reject plus the write-rejection counter.
func (sess *session) rejectWrite(code uint16, msg string) (FrameType, []byte) {
	sess.srv.stats.RejectedWrites.Add(1)
	return reject(sess, code, msg)
}

// admitRate draws n entries from the write-rate token bucket of the tenant
// this session is attributed to (its own bucket when no tenant is set —
// the pre-fleet per-connection behaviour).
func (sess *session) admitRate(n int) bool {
	key, _ := sess.tenantKey()
	return sess.srv.admitRate(key, n)
}

// rejectThrottled is the typed write-rate rejection.
func (sess *session) rejectThrottled(n int) (FrameType, []byte) {
	sess.srv.stats.RejectedThrottle.Add(1)
	return reject(sess, CodeWriteThrottled, fmt.Sprintf(
		"write rate limit: batch of %d exceeds the tenant's available tokens; retry after backoff", n))
}

// handleWrite serves an append (FAppend) or, the same wire shape, a batch of
// tombstones (FDeleteRecs).
func (sess *session) handleWrite(t FrameType, body []byte) (FrameType, []byte) {
	req, err := DecodeWriteReq(body)
	if err != nil {
		sess.srv.stats.BadFrames.Add(1)
		return reject(sess, CodeBadRequest, err.Error())
	}
	sv, ok := sess.srv.lookupViewID(req.ViewID)
	if !ok {
		return reject(sess, CodeUnknownView, "unknown view id")
	}
	w, code, msg := sess.admitWrite(sv, len(req.Records))
	if w == nil {
		return sess.rejectWrite(code, msg)
	}
	if !sess.admitRate(len(req.Records)) {
		return sess.rejectThrottled(len(req.Records))
	}
	verb, apply, applied, ack := "append", w.Insert, &sess.srv.stats.RecordsIngested, FAppendOK
	if t == FDeleteRecs {
		verb, apply, applied, ack = "delete", w.Delete, &sess.srv.stats.RecordsDeleted, FDeleteOK
	}
	// Entries are applied in order; the first failure stops the batch and
	// reports it, with the count applied telling the client how far the
	// batch got (the earlier entries are already in the memview).
	for i := range req.Records {
		if err := apply(req.Records[i]); err != nil {
			applied.Add(int64(i))
			return reject(sess, CodeInternal, fmt.Sprintf("%s record %d of %d: %v", verb, i, len(req.Records), err))
		}
	}
	// The ack is a durability promise: group-commit the batch before
	// sending it, so an acked append or tombstone survives a crash.
	if err := w.Commit(); err != nil {
		return reject(sess, CodeInternal, fmt.Sprintf("%s commit: %v", verb, err))
	}
	applied.Add(int64(len(req.Records)))
	return ack, WriteAck{ViewID: req.ViewID, N: uint32(len(req.Records))}.Encode()
}

func (sess *session) handleFlushView(body []byte) (FrameType, []byte) {
	req, err := DecodeFlushViewReq(body)
	if err != nil {
		sess.srv.stats.BadFrames.Add(1)
		return reject(sess, CodeBadRequest, err.Error())
	}
	sv, ok := sess.srv.lookupViewID(req.ViewID)
	if !ok {
		return reject(sess, CodeUnknownView, "unknown view id")
	}
	w, code, msg := sess.admitWrite(sv, 0)
	if w == nil {
		return sess.rejectWrite(code, msg)
	}
	ws := w.WriteStats()
	buffered := ws.MemViewRecords + ws.MemViewTombstones
	if err := w.Flush(); err != nil {
		code := CodeInternal
		if sampleview.IsTransient(err) {
			sess.srv.stats.TransientErrors.Add(1)
			code = CodeTransient
		}
		return reject(sess, code, err.Error())
	}
	sess.srv.stats.FlushesServed.Add(1)
	n := uint32(buffered)
	if buffered < 0 || buffered > int64(^uint32(0)) {
		n = 0
	}
	return FFlushOK, WriteAck{ViewID: req.ViewID, N: n}.Encode()
}

func (sess *session) handleCancel(body []byte) (FrameType, []byte) {
	req, err := DecodeCancelReq(body)
	if err != nil {
		sess.srv.stats.BadFrames.Add(1)
		return reject(sess, CodeBadRequest, err.Error())
	}
	st, ok := sess.removeStream(req.StreamID, false)
	if !ok {
		// Idempotent against the reaper and EOF auto-close: cancelling a
		// stream that is already gone succeeds.
		sess.mu.Lock()
		_, wasKnown := sess.reaped[req.StreamID]
		known := wasKnown || req.StreamID != 0 && req.StreamID <= sess.nextStream
		sess.mu.Unlock()
		if known {
			return FCancelOK, CancelReq{StreamID: req.StreamID}.Encode()
		}
		return reject(sess, CodeUnknownStream, "unknown stream id")
	}
	st.chargeSim(sess)
	st.s.Close()
	sess.counters.StreamsClosed.Add(1)
	sess.srv.stats.StreamsClosed.Add(1)
	key, _ := sess.tenantKey()
	sess.srv.releaseStreams(key, 1)
	return FCancelOK, CancelReq{StreamID: req.StreamID}.Encode()
}

// reapIdle closes this session's streams that are idle past d on their
// view's simulated clock and returns how many it reaped.
func (sess *session) reapIdle(d time.Duration) int {
	sess.mu.Lock()
	var victims []*servedStream
	for id, st := range sess.streams {
		if time.Duration(int64(st.view.v.SimNow())-st.lastActive.Load()) > d {
			victims = append(victims, st)
			delete(sess.streams, id)
			sess.reaped[id] = struct{}{}
		}
	}
	sess.mu.Unlock()
	for _, st := range victims {
		st.chargeSim(sess)
		st.s.Close()
	}
	if n := int64(len(victims)); n > 0 {
		sess.counters.StreamsReaped.Add(n)
		sess.counters.StreamsClosed.Add(n)
	}
	return len(victims)
}

// closeAllStreams tears down every stream at session exit and returns how
// many server-wide slots to release.
func (sess *session) closeAllStreams() int {
	sess.mu.Lock()
	victims := make([]*servedStream, 0, len(sess.streams))
	for id, st := range sess.streams {
		victims = append(victims, st)
		delete(sess.streams, id)
	}
	sess.mu.Unlock()
	for _, st := range victims {
		st.chargeSim(sess)
		st.s.Close()
	}
	if n := int64(len(victims)); n > 0 {
		sess.counters.StreamsClosed.Add(n)
		sess.srv.stats.StreamsClosed.Add(n)
	}
	return len(victims)
}

// snapshot copies the session's counters.
func (sess *session) snapshot() SessionSnapshot {
	sess.mu.Lock()
	open := int64(len(sess.streams))
	sess.mu.Unlock()
	c := &sess.counters
	return SessionSnapshot{
		ID:            sess.id,
		OpenStreams:   open,
		StreamsOpened: c.StreamsOpened.Load(),
		StreamsReaped: c.StreamsReaped.Load(),
		Batches:       c.Batches.Load(),
		Records:       c.Records.Load(),
		Rejections:    c.Rejections.Load(),
		BytesRead:     c.BytesRead.Load(),
		BytesWritten:  c.BytesWritten.Load(),
		SimIO:         time.Duration(c.SimIONanos.Load()),
	}
}
