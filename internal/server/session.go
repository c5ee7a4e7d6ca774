package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// servedStream is one open stream of one session. The Endpoint's stream is
// internally synchronized, so the request path and the idle reaper may race
// on it freely; lastActive and simSeen are atomics for the same reason.
type servedStream struct {
	s EndpointStream
	// lastActive is the simulated time (nanoseconds) of what the stream
	// samples when it last served a request; the reaper compares it against
	// that clock's current reading.
	lastActive atomic.Int64
	// simSeen is the portion of the stream's own simulated I/O time already
	// folded into the session and engine counters.
	simSeen atomic.Int64
	// pos is the stream's position: records served (or skipped by a
	// fast-forward) so far, the canonical resume point a fleet router migrates
	// and hedges on. Only the session's goroutine touches it.
	pos int64
}

// charge stamps the stream as active now and folds its not-yet-accounted
// simulated I/O time into the session and engine counters.
func (st *servedStream) charge(sess *session) {
	used, now := st.s.Clock()
	st.lastActive.Store(int64(now))
	if d := int64(used) - st.simSeen.Swap(int64(used)); d > 0 {
		sess.counters.SimIONanos.Add(d)
		sess.eng.stats.SimIONanos.Add(d)
	}
}

// session is the per-connection engine state: the stream registry, the
// per-session counter slice, and the drain handshake with Shutdown.
type session struct {
	id   uint64
	eng  *Engine
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
	return sess.connKey(), false
}

// connKey is the accounting key of a session that has set no tenant.
func (sess *session) connKey() string { return fmt.Sprintf("conn:%d", sess.id) }

// countingConn counts bytes crossing the wire into both the session's and
// the engine's counters.
type countingConn struct {
	net.Conn
	sess *session
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.sess.counters.BytesRead.Add(int64(n))
		c.sess.eng.stats.BytesRead.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.sess.counters.BytesWritten.Add(int64(n))
		c.sess.eng.stats.BytesWritten.Add(int64(n))
	}
	return n, err
}

// serveConn runs one connection's request loop until the peer disconnects,
// a protocol error occurs, or the engine drains.
func (e *Engine) serveConn(nc net.Conn) {
	defer e.wg.Done()
	defer nc.Close()
	sess := &session{
		eng:     e,
		conn:    nc,
		streams: make(map[uint32]*servedStream),
		reaped:  make(map[uint32]struct{}),
	}
	cc := &countingConn{Conn: nc, sess: sess}
	if !e.register(sess) {
		// Raced with Shutdown: refuse politely and hang up.
		e.stats.ConnsRejected.Add(1)
		frame, _ := AppendFrame(nil, FError, ErrorResp{Code: CodeShuttingDown, Msg: "server shutting down"}.Encode())
		_, _ = cc.Write(frame) // best effort: the peer is being turned away either way
		return
	}
	defer e.unregister(sess)

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
				e.stats.BadFrames.Add(1)
			}
			return
		}
		sess.busy.Lock()
		e.inFlight.Add(1)
		frame, werr := sess.respond(t, body)
		if werr == nil {
			_, werr = cc.Write(frame)
		}
		idle := e.inFlight.Add(-1) == 0
		sess.busy.Unlock()
		if werr != nil {
			return
		}
		sess.clearDeadline()
		if e.isDraining() {
			return
		}
		if idle {
			e.ep.Idle()
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

// keep makes frame's memory the connection's write buffer, unless the frame
// was one of the rare ones past KeepBuf.
func (sess *session) keep(frame []byte) []byte {
	sess.wbuf = frame
	if cap(frame) > KeepBuf {
		sess.wbuf = nil
	}
	return frame
}

// armDeadline sets the connection's absolute I/O deadline RequestTimeout
// from now. The deadline is wall clock by design: it defends the serving
// loop against peers that stall mid-frame or stop draining responses,
// failure modes the simulated disk clock cannot observe.
func (sess *session) armDeadline() {
	if d := sess.eng.cfg.RequestTimeout; d > 0 {
		_ = sess.conn.SetDeadline(time.Now().Add(d))
	}
}

// clearDeadline removes the per-request wall clock deadline once the
// response has been flushed.
func (sess *session) clearDeadline() {
	if sess.eng.cfg.RequestTimeout > 0 {
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
	case FReplicaInfo, FListViews:
		if len(body) != 0 {
			return sess.badFrame(errTrailing.Error())
		}
		if t == FReplicaInfo {
			return sess.handleReplicaInfo()
		}
		views, err := sess.eng.ep.ListViews()
		if err != nil {
			return sess.fail(err)
		}
		return FViewList, ViewListResp{Views: views}.Encode()
	case FStats:
		return FStatsResult, sess.eng.Snapshot().Encode()
	default:
		return sess.badFrame("unknown frame type " + t.String())
	}
}

// reject builds a typed error response, counting it against the session and,
// by code, against the engine.
func (sess *session) reject(code uint16, msg string) (FrameType, []byte) {
	sess.counters.Rejections.Add(1)
	if sent := sess.eng.stats.errorsSent[:]; int(code) < len(sent) {
		sent[code].Add(1)
	}
	return FError, ErrorResp{Code: code, Msg: msg}.Encode()
}

// fail rejects with an Endpoint's failure: a typed one under its own code
// and message, anything else as CodeInternal.
func (sess *session) fail(err error) (FrameType, []byte) {
	if se, ok := err.(*Error); ok {
		return sess.reject(se.Code, se.Msg)
	}
	return sess.reject(CodeInternal, err.Error())
}

// badFrame counts and rejects a request that is not in the protocol: a body
// that does not decode, or a frame type that is no request.
func (sess *session) badFrame(msg string) (FrameType, []byte) {
	sess.eng.stats.BadFrames.Add(1)
	return sess.reject(CodeBadRequest, msg)
}

func (sess *session) handleOpenView(body []byte) (FrameType, []byte) {
	req, err := DecodeOpenViewReq(body)
	if err != nil {
		return sess.badFrame(err.Error())
	}
	info, err := sess.eng.ep.OpenView(req.Name)
	if err != nil {
		return sess.fail(err)
	}
	return FViewInfo, info.Encode()
}

func (sess *session) handleReplicaInfo() (FrameType, []byte) {
	e := sess.eng
	id, maxStreams := e.ep.Identity()
	e.mu.Lock()
	open, draining := e.openStreams, e.draining
	e.mu.Unlock()
	return FReplicaInfoResult, ReplicaInfoResp{
		ReplicaID:   id,
		OpenStreams: uint32(open),
		MaxStreams:  uint32(maxStreams),
		Draining:    draining,
	}.Encode()
}

func (sess *session) handleSetTenant(body []byte) (FrameType, []byte) {
	req, err := DecodeSetTenantReq(body)
	if err != nil {
		return sess.badFrame(err.Error())
	}
	if req.Tenant == "" {
		return sess.reject(CodeBadRequest, "empty tenant name")
	}
	sess.mu.Lock()
	switch {
	case sess.tenant == req.Tenant:
		sess.mu.Unlock() // idempotent re-attribution
		return FTenantOK, req.Encode()
	case sess.tenant != "":
		sess.mu.Unlock()
		return sess.reject(CodeBadRequest, "connection already attributed to tenant "+sess.tenant)
	case sess.nextStream > 0:
		// Streams (and their quota slots) were already accounted under the
		// per-connection key; re-attributing them mid-flight would corrupt
		// both tallies.
		sess.mu.Unlock()
		return sess.reject(CodeBadRequest, "set-tenant must precede the connection's first stream")
	}
	sess.tenant = req.Tenant
	sess.mu.Unlock()
	// Nothing holds the per-connection key any more: drop the bucket a write
	// or a refused open may have made under it.
	e := sess.eng
	e.dropTenant(sess.connKey(), false)
	e.mu.Lock()
	e.tenantLocked(tenantKeyFor(req.Tenant)).conns++
	e.mu.Unlock()
	return FTenantOK, req.Encode()
}

func (sess *session) handleOpenStream(body []byte) (FrameType, []byte) {
	req, err := DecodeOpenStreamReq(body)
	if err != nil {
		return sess.badFrame(err.Error())
	}
	e := sess.eng
	key, _ := sess.tenantKey()
	rej := e.admitStream(key)
	if rej != nil && rej.Code == CodeServerStreams {
		// The engine-wide cap is the one moment idle streams matter: reap
		// abandoned ones and retry, so a saturated server sheds dead weight
		// before rejecting live traffic. Reaping never runs uncontended —
		// under heavy fan-in the shared simulated clock races far ahead of
		// any single stream's activity, and an unconditional sweep would
		// collect streams that are merely waiting their turn.
		e.reapIdle()
		rej = e.admitStream(key)
	}
	if rej != nil {
		return sess.fail(rej)
	}
	sess.mu.Lock()
	tenant := sess.tenant
	connFull := e.cfg.MaxStreamsPerConn > 0 && len(sess.streams) >= e.cfg.MaxStreamsPerConn
	sess.mu.Unlock()
	if connFull {
		e.releaseStreams(key, 1)
		return sess.reject(CodeConnStreams, "connection stream limit reached")
	}
	s, err := e.ep.OpenStream(tenant, key, req)
	if err != nil {
		e.releaseStreams(key, 1)
		return sess.fail(err)
	}
	st := &servedStream{s: s, pos: req.StartPos}
	st.charge(sess)
	sess.mu.Lock()
	sess.nextStream++
	id := sess.nextStream
	sess.streams[id] = st
	sess.mu.Unlock()
	sess.counters.StreamsOpened.Add(1)
	e.stats.StreamsOpened.Add(1)
	return FStreamOpened, StreamOpened{StreamID: id}.Encode()
}

// removeStream unregisters a stream and reports whether it was present.
func (sess *session) removeStream(id uint32) (*servedStream, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st, ok := sess.streams[id]
	delete(sess.streams, id)
	return st, ok
}

// retire closes a stream the client cancelled or drained and frees its
// admission slot.
func (sess *session) retire(st *servedStream) {
	st.charge(sess)
	st.s.Close()
	sess.counters.StreamsClosed.Add(1)
	sess.eng.stats.StreamsClosed.Add(1)
	key, _ := sess.tenantKey()
	sess.eng.releaseStreams(key, 1)
}

// handleNextBatch serves one batch pull: the stream appends the batch body
// straight behind the frame header in the connection's write buffer.
func (sess *session) handleNextBatch(body []byte) ([]byte, error) {
	req, err := DecodeNextBatchReq(body)
	if err != nil {
		return sess.frame(sess.badFrame(err.Error()))
	}
	sess.mu.Lock()
	st, ok := sess.streams[req.StreamID]
	_, wasReaped := sess.reaped[req.StreamID]
	sess.mu.Unlock()
	if !ok {
		if wasReaped {
			return sess.frame(sess.reject(CodeStreamReaped, "stream reaped after simulated-clock idle timeout"))
		}
		return sess.frame(sess.reject(CodeUnknownStream, "unknown stream id"))
	}
	// Samples are served exactly once, so a pull behind the stream is
	// unservable — the caller must reopen at the position it wants. A pull
	// ahead of the stream (the losing half of a hedged pair, reconciling)
	// fast-forwards: the skipped records were already delivered by the other
	// replica.
	if req.Pos < st.pos {
		return sess.frame(sess.reject(CodeStreamPosition, fmt.Sprintf(
			"stream at position %d, requested position %d is behind it", st.pos, req.Pos)))
	}
	max := int(req.Max)
	if max <= 0 || max > MaxBatch {
		max = MaxBatch
	}
	dst := append(sess.wbuf[:0], 0, 0, 0, 0, byte(FBatch))
	sess.wbuf = nil // the stream's now; what comes back is kept
	rb, err := st.s.Pull(dst, req.Pos, max)
	st.charge(sess)
	if rb.End > st.pos {
		st.pos = rb.End
	}
	if err != nil {
		return sess.frame(sess.fail(err))
	}
	if rb.EOF {
		// The sequence is exhausted: retire the stream and free its
		// admission slot without waiting for a cancel.
		if _, ok := sess.removeStream(req.StreamID); ok {
			sess.retire(st)
		}
	}
	sess.counters.Batches.Add(1)
	sess.counters.Records.Add(int64(rb.N))
	sess.eng.stats.BatchesServed.Add(1)
	sess.eng.stats.RecordsServed.Add(int64(rb.N))
	frame := rb.Body
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-headerSize))
	SetBatchStream(frame[headerSize+1:], req.StreamID)
	return sess.keep(frame), nil
}

func (sess *session) handleEstimate(body []byte) (FrameType, []byte) {
	req, err := DecodeEstimateReq(body)
	if err != nil {
		return sess.badFrame(err.Error())
	}
	est, err := sess.eng.ep.Estimate(req)
	if err != nil {
		return sess.fail(err)
	}
	sess.eng.stats.EstimatesServed.Add(1)
	return FEstimateResult, EstimateResp{Count: est}.Encode()
}

// handleWrite serves an append (FAppend) or, the same wire shape, a batch of
// tombstones (FDeleteRecs), drawing on the write-rate bucket of the tenant
// this session is attributed to (its own bucket when no tenant is set). A
// batch the bucket refuses is rejected before the Endpoint sees it, so the
// client can safely retry the identical batch.
func (sess *session) handleWrite(t FrameType, body []byte) (FrameType, []byte) {
	req, err := DecodeWriteReq(body)
	if err != nil {
		return sess.badFrame(err.Error())
	}
	key, _ := sess.tenantKey()
	if n := len(req.Records); !sess.eng.admitRate(key, n) {
		return sess.reject(CodeWriteThrottled, fmt.Sprintf(
			"write rate limit: batch of %d exceeds the tenant's available tokens; retry after backoff", n))
	}
	applied, ack := &sess.eng.stats.RecordsIngested, FAppendOK
	if t == FDeleteRecs {
		applied, ack = &sess.eng.stats.RecordsDeleted, FDeleteOK
	}
	n, err := sess.eng.ep.Write(t, req)
	applied.Add(int64(n))
	if err != nil {
		return sess.fail(err)
	}
	return ack, WriteAck{ViewID: req.ViewID, N: n}.Encode()
}

func (sess *session) handleFlushView(body []byte) (FrameType, []byte) {
	req, err := DecodeFlushViewReq(body)
	if err != nil {
		return sess.badFrame(err.Error())
	}
	n, err := sess.eng.ep.Flush(req.ViewID)
	if err != nil {
		return sess.fail(err)
	}
	sess.eng.stats.FlushesServed.Add(1)
	return FFlushOK, WriteAck{ViewID: req.ViewID, N: n}.Encode()
}

func (sess *session) handleCancel(body []byte) (FrameType, []byte) {
	req, err := DecodeCancelReq(body)
	if err != nil {
		return sess.badFrame(err.Error())
	}
	st, ok := sess.removeStream(req.StreamID)
	if !ok {
		// Idempotent against the reaper and EOF auto-close: cancelling a
		// stream that is already gone succeeds.
		sess.mu.Lock()
		known := req.StreamID != 0 && req.StreamID <= sess.nextStream
		sess.mu.Unlock()
		if !known {
			return sess.reject(CodeUnknownStream, "unknown stream id")
		}
	} else {
		sess.retire(st)
	}
	return FCancelOK, req.Encode()
}

// closeStreams unregisters the session's streams that doomed picks (all of
// them when nil: the session is over), leaving a reaped tombstone for each
// when asReaped, closes them, and returns how many admission slots to
// release.
func (sess *session) closeStreams(doomed func(*servedStream) bool, asReaped bool) int {
	sess.mu.Lock()
	var victims []*servedStream
	for id, st := range sess.streams {
		if doomed == nil || doomed(st) {
			victims = append(victims, st)
			delete(sess.streams, id)
			if asReaped {
				sess.reaped[id] = struct{}{}
			}
		}
	}
	sess.mu.Unlock()
	for _, st := range victims {
		st.charge(sess)
		st.s.Close()
	}
	sess.counters.StreamsClosed.Add(int64(len(victims)))
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
