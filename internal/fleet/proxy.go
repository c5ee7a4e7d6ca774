package fleet

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"sampleview/internal/server"
)

// proxySession is one client connection as the router sees it: the
// tenant attribution, the open routed streams, and the session's slice of
// the router's view registry. The router speaks the exact single-server
// protocol — one response frame per request frame — so existing clients
// and tools work against a fleet unchanged.
type proxySession struct {
	r        *Router
	id       uint64
	tenant   string // named tenant, "" until set-tenant
	key      string // accounting key once fixed (tenant or conn fallback)
	attached bool   // the key has been attached to the router's tenant map

	streams    map[uint32]*routedStream
	nextStream uint32
}

var nextSessionID atomic.Uint64

// serveConn runs one client connection's request loop.
func (r *Router) serveConn(nc net.Conn) {
	defer r.wg.Done()
	defer func() {
		nc.Close()
		r.mu.Lock()
		delete(r.conns, nc)
		r.mu.Unlock()
	}()
	ps := &proxySession{
		r:       r,
		id:      nextSessionID.Add(1),
		streams: make(map[uint32]*routedStream),
	}
	defer ps.teardown()
	fr := server.NewFrameReader(nc)
	var wbuf []byte // every response frame is encoded here, in place
	for {
		t, body, err := fr.Next()
		if err != nil {
			return // disconnect or torn frame; nothing to answer
		}
		rt, rbody := ps.handle(t, body)
		if wbuf, err = server.AppendFrame(wbuf[:0], rt, rbody); err != nil {
			return
		}
		if _, err := nc.Write(wbuf); err != nil {
			return
		}
		if cap(wbuf) > server.KeepBuf {
			wbuf = nil
		}
		if r.isDraining() {
			return
		}
	}
}

// accountKey fixes and returns the session's quota accounting key: the
// named tenant when one was set, otherwise a per-connection fallback
// (mirroring the single server's pre-fleet semantics).
func (ps *proxySession) accountKey() string {
	if ps.key == "" {
		if ps.tenant != "" {
			ps.key = "tenant:" + ps.tenant
		} else {
			ps.key = fmt.Sprintf("conn:%d", ps.id)
		}
	}
	if !ps.attached {
		ps.r.attachTenant(ps.key)
		ps.attached = true
	}
	return ps.key
}

// teardown releases everything the session held: streams (and their
// replica legs), quota slots, and the tenant attachment.
func (ps *proxySession) teardown() {
	for id, st := range ps.streams {
		delete(ps.streams, id)
		st.close()
		ps.r.releaseTenantStream(st.key)
		ps.r.stats.StreamsClosed.Add(1)
	}
	if ps.attached {
		ps.r.detachTenant(ps.key)
	}
	ps.r.stats.ConnsClosed.Add(1)
}

// reject builds a typed error response.
func (ps *proxySession) reject(code uint16, msg string) (server.FrameType, []byte) {
	return server.FError, server.ErrorResp{Code: code, Msg: msg}.Encode()
}

// forward re-encodes a replica's typed error for the client; transport
// and other untyped failures become CodeInternal.
func (ps *proxySession) forward(err error) (server.FrameType, []byte) {
	if se, ok := err.(*server.Error); ok {
		return ps.reject(se.Code, se.Msg)
	}
	return ps.reject(server.CodeInternal, err.Error())
}

// badFrame counts and rejects a malformed request body.
func (ps *proxySession) badFrame(err error) (server.FrameType, []byte) {
	ps.r.stats.BadFrames.Add(1)
	return ps.reject(server.CodeBadRequest, err.Error())
}

// handle dispatches one request frame.
func (ps *proxySession) handle(t server.FrameType, body []byte) (server.FrameType, []byte) {
	switch t {
	case server.FOpenView:
		return ps.handleOpenView(body)
	case server.FSetTenant:
		return ps.handleSetTenant(body)
	case server.FOpenStream:
		return ps.handleOpenStream(body)
	case server.FNextBatch:
		return ps.handleNextBatch(body)
	case server.FCancel:
		return ps.handleCancel(body)
	case server.FEstimate:
		return ps.handleEstimate(body)
	case server.FAppend, server.FDeleteRecs:
		return ps.handleWrite(t, body)
	case server.FFlushView:
		return ps.handleFlush(body)
	case server.FListViews:
		return ps.handleListViews(body)
	case server.FStats:
		return server.FStatsResult, ps.r.Snapshot().Encode()
	case server.FReplicaInfo:
		return ps.handleReplicaInfo(body)
	default:
		ps.r.stats.BadFrames.Add(1)
		return ps.reject(server.CodeBadRequest, "unknown frame type "+t.String())
	}
}

func (ps *proxySession) handleOpenView(body []byte) (server.FrameType, []byte) {
	req, err := server.DecodeOpenViewReq(body)
	if err != nil {
		return ps.badFrame(err)
	}
	id, meta, err := ps.r.openRouterView(req.Name)
	if err != nil {
		return ps.forward(err)
	}
	return server.FViewInfo, server.ViewInfo{ViewID: id, Dims: uint8(meta.dims), Height: uint8(meta.height), Count: meta.count}.Encode()
}

func (ps *proxySession) handleSetTenant(body []byte) (server.FrameType, []byte) {
	req, err := server.DecodeSetTenantReq(body)
	if err != nil {
		return ps.badFrame(err)
	}
	tenant := req.Tenant
	switch {
	case tenant == "":
		return ps.reject(server.CodeBadRequest, "empty tenant name")
	case ps.tenant == tenant:
		return server.FTenantOK, req.Encode() // idempotent
	case ps.tenant != "":
		return ps.reject(server.CodeBadRequest, "connection already attributed to tenant "+ps.tenant)
	case ps.key != "":
		return ps.reject(server.CodeBadRequest, "set-tenant must precede the connection's first stream")
	}
	ps.tenant = tenant
	ps.accountKey()
	return server.FTenantOK, req.Encode()
}

func (ps *proxySession) handleOpenStream(body []byte) (server.FrameType, []byte) {
	req, err := server.DecodeOpenStreamReq(body)
	if err != nil {
		return ps.badFrame(err)
	}
	r := ps.r
	name, meta, ok := r.viewByID(req.ViewID)
	if !ok {
		return ps.reject(server.CodeUnknownView, "unknown view id")
	}
	if req.Query.Dims() != meta.dims {
		return ps.reject(server.CodeBadRequest, "query dimensions do not match the view")
	}
	if r.isDraining() {
		r.stats.RejectedDrain.Add(1)
		return ps.reject(server.CodeShuttingDown, "router shutting down")
	}
	key := ps.accountKey()
	if !r.admitTenantStream(key) {
		r.stats.RejectedTenant.Add(1)
		return ps.reject(server.CodeTenantStreams, "tenant stream limit reached")
	}
	// A client that asked for a specific (seed, position) gets exactly it
	// (a router can front another router); plain opens get a router-derived
	// seed, which is what makes the stream migratable at all.
	seed, pos := req.Seed, req.StartPos
	if !req.Seeded {
		seed, pos = r.streamSeed(), 0
	}
	st := &routedStream{
		r: r, tenant: ps.tenant, key: key,
		view: name, query: req.Query, seed: seed, pos: pos,
	}
	link, oerr := st.open()
	if oerr != nil {
		r.releaseTenantStream(key)
		if se, isTyped := oerr.(*server.Error); isTyped {
			if server.IsAdmissionReject(oerr) || se.Code == server.CodeShuttingDown {
				r.stats.RejectedServer.Add(1)
			}
			return ps.forward(oerr)
		}
		r.stats.RejectedServer.Add(1)
		return ps.reject(server.CodeServerStreams, oerr.Error())
	}
	st.mu.Lock()
	st.primary = link
	st.mu.Unlock()
	ps.nextStream++
	st.id = ps.nextStream
	ps.streams[st.id] = st
	r.stats.StreamsOpened.Add(1)
	return server.FStreamOpened, server.StreamOpened{StreamID: st.id}.Encode()
}

func (ps *proxySession) handleNextBatch(body []byte) (server.FrameType, []byte) {
	req, err := server.DecodeNextBatchReq(body)
	if err != nil {
		return ps.badFrame(err)
	}
	st, ok := ps.streams[req.StreamID]
	if !ok {
		return ps.reject(server.CodeUnknownStream, "unknown stream id")
	}
	st.mu.Lock()
	pos := st.pos
	st.mu.Unlock()
	if req.Pos >= 0 {
		// Same contract as the single server: behind the canonical position
		// is unservable, ahead fast-forwards (the replica does the skip).
		if req.Pos < pos {
			return ps.reject(server.CodeStreamPosition, fmt.Sprintf(
				"stream at position %d, requested position %d is behind it", pos, req.Pos))
		}
		pos = req.Pos
	}
	max := int(req.Max)
	if max <= 0 || max > ps.r.cfg.MaxBatch {
		max = ps.r.cfg.MaxBatch
	}
	rb, perr := st.pull(pos, max)
	if perr != nil {
		return ps.forward(perr)
	}
	ps.r.stats.BatchesServed.Add(1)
	ps.r.stats.RecordsServed.Add(int64(rb.N))
	if rb.EOF {
		// Mirror the single server: the sequence is exhausted, retire the
		// stream and free its quota slot without waiting for a cancel.
		delete(ps.streams, req.StreamID)
		st.close()
		ps.r.releaseTenantStream(st.key)
		ps.r.stats.StreamsClosed.Add(1)
	}
	// Pass the replica's body through under the client's stream id: eof,
	// records and position are already what this client must see.
	server.SetBatchStream(rb.Body, req.StreamID)
	return server.FBatch, rb.Body
}

func (ps *proxySession) handleCancel(body []byte) (server.FrameType, []byte) {
	req, err := server.DecodeCancelReq(body)
	if err != nil {
		return ps.badFrame(err)
	}
	id := req.StreamID
	st, ok := ps.streams[id]
	if !ok {
		// Idempotent against EOF auto-close, like the single server.
		if id != 0 && id <= ps.nextStream {
			return server.FCancelOK, req.Encode()
		}
		return ps.reject(server.CodeUnknownStream, "unknown stream id")
	}
	delete(ps.streams, id)
	st.close()
	ps.r.releaseTenantStream(st.key)
	ps.r.stats.StreamsClosed.Add(1)
	return server.FCancelOK, req.Encode()
}

func (ps *proxySession) handleEstimate(body []byte) (server.FrameType, []byte) {
	req, err := server.DecodeEstimateReq(body)
	if err != nil {
		return ps.badFrame(err)
	}
	name, meta, ok := ps.r.viewByID(req.ViewID)
	if !ok {
		return ps.reject(server.CodeUnknownView, "unknown view id")
	}
	if req.Query.Dims() != meta.dims {
		return ps.reject(server.CodeBadRequest, "query dimensions do not match the view")
	}
	// Estimates are stateless: serve from the placement walk's first live
	// replica, failing over on transport errors.
	var lastErr error
	for _, rep := range ps.r.aliveFor(name) {
		rv, verr := ps.r.sharedView(rep, name)
		if verr != nil {
			lastErr = verr
			continue
		}
		est, eerr := rv.EstimateCount(req.Query)
		if eerr == nil {
			return server.FEstimateResult, server.EstimateResp{Count: est}.Encode()
		}
		lastErr = eerr
		if _, typed := eerr.(*server.Error); typed {
			return ps.forward(eerr)
		}
		ps.r.markDead(rep)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no live replica")
	}
	return ps.forward(lastErr)
}

// handleWrite fans an append or delete out to every live replica. The
// per-view write lock serializes the fleet's writes so all replicas apply
// them in one order; the first reachable replica decides admission (its
// typed rejection is forwarded and nothing else is attempted), and a
// follower that fails after the decider accepted is marked dead — it can
// no longer be byte-identical with the fleet.
func (ps *proxySession) handleWrite(t server.FrameType, body []byte) (server.FrameType, []byte) {
	req, err := server.DecodeWriteReq(body)
	if err != nil {
		return ps.badFrame(err)
	}
	name, _, ok := ps.r.viewByID(req.ViewID)
	if !ok {
		return ps.reject(server.CodeUnknownView, "unknown view id")
	}
	if !ps.r.admitTenantWrite(ps.accountKey(), len(req.Records)) {
		ps.r.stats.RejectedThrottle.Add(1)
		return ps.reject(server.CodeWriteThrottled, fmt.Sprintf(
			"write rate limit: batch of %d exceeds the tenant's available tokens; retry after backoff", len(req.Records)))
	}
	mu := ps.r.viewWriteMu(name)
	mu.Lock()
	defer mu.Unlock()

	var ack uint32
	decided := false
	var lastErr error
	for _, rep := range ps.r.liveReplicas() {
		rv, verr := ps.r.sharedView(rep, name)
		if verr != nil {
			lastErr = verr
			continue
		}
		var n int
		var werr error
		if t == server.FAppend {
			n, werr = rv.Append(req.Records)
		} else {
			n, werr = rv.Delete(req.Records)
		}
		if werr != nil {
			if !decided {
				if _, typed := werr.(*server.Error); typed {
					return ps.forward(werr) // the decider's rejection is the fleet's
				}
				ps.r.markDead(rep)
				lastErr = werr
				continue
			}
			ps.r.markDead(rep)
			continue
		}
		if !decided {
			ack, decided = uint32(n), true
		}
	}
	if !decided {
		if lastErr == nil {
			lastErr = fmt.Errorf("no live replica")
		}
		return ps.forward(lastErr)
	}
	resp := server.FAppendOK
	if t == server.FAppend {
		ps.r.stats.RecordsIngested.Add(int64(ack))
	} else {
		resp = server.FDeleteOK
	}
	return resp, server.WriteAck{ViewID: req.ViewID, N: ack}.Encode()
}

// handleFlush fans a flush out to every live replica under the same
// write-serialization lock; the first reachable replica's ack is the
// response.
func (ps *proxySession) handleFlush(body []byte) (server.FrameType, []byte) {
	req, err := server.DecodeFlushViewReq(body)
	if err != nil {
		return ps.badFrame(err)
	}
	viewID := req.ViewID
	name, _, ok := ps.r.viewByID(viewID)
	if !ok {
		return ps.reject(server.CodeUnknownView, "unknown view id")
	}
	mu := ps.r.viewWriteMu(name)
	mu.Lock()
	defer mu.Unlock()
	var ack uint32
	decided := false
	var lastErr error
	for _, rep := range ps.r.liveReplicas() {
		rv, verr := ps.r.sharedView(rep, name)
		if verr != nil {
			lastErr = verr
			continue
		}
		n, ferr := rv.Flush()
		if ferr != nil {
			if !decided {
				if _, typed := ferr.(*server.Error); typed {
					return ps.forward(ferr)
				}
				ps.r.markDead(rep)
				lastErr = ferr
				continue
			}
			ps.r.markDead(rep)
			continue
		}
		if !decided {
			ack, decided = uint32(n), true
		}
	}
	if !decided {
		if lastErr == nil {
			lastErr = fmt.Errorf("no live replica")
		}
		return ps.forward(lastErr)
	}
	return server.FFlushOK, server.WriteAck{ViewID: viewID, N: ack}.Encode()
}

func (ps *proxySession) handleListViews(body []byte) (server.FrameType, []byte) {
	if len(body) != 0 {
		return ps.badFrame(fmt.Errorf("trailing bytes after message body"))
	}
	var lastErr error
	for _, rep := range ps.r.liveReplicas() {
		rep.mu.Lock()
		cl := rep.cl
		rep.mu.Unlock()
		if cl == nil {
			continue
		}
		views, err := cl.ListViews()
		if err == nil {
			return server.FViewList, server.ViewListResp{Views: views}.Encode()
		}
		lastErr = err
		if _, typed := err.(*server.Error); !typed {
			ps.r.markDead(rep)
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no live replica")
	}
	return ps.forward(lastErr)
}

func (ps *proxySession) handleReplicaInfo(body []byte) (server.FrameType, []byte) {
	if len(body) != 0 {
		return ps.badFrame(fmt.Errorf("trailing bytes after message body"))
	}
	capacity := 0
	for _, rep := range ps.r.reps {
		rep.mu.Lock()
		if rep.alive {
			capacity += rep.maxStr
		}
		rep.mu.Unlock()
	}
	open := ps.r.stats.StreamsOpened.Load() - ps.r.stats.StreamsClosed.Load()
	if open < 0 {
		open = 0
	}
	return server.FReplicaInfoResult, server.ReplicaInfoResp{
		ReplicaID:   "router",
		OpenStreams: uint32(open),
		MaxStreams:  uint32(capacity),
		Draining:    ps.r.isDraining(),
	}.Encode()
}

// viewByID resolves a router view id back to its name and cached shape.
func (r *Router) viewByID(id uint32) (string, viewMeta, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name, ok := r.viewNames[id]
	if !ok {
		return "", viewMeta{}, false
	}
	return name, r.viewMeta[name], true
}

// openRouterView resolves a view name against a live replica, assigns (or
// reuses) the router's own id for it, and refreshes the cached shape. The
// cached record count is the count at resolution time; like a single
// server's view-info response it is a snapshot, not a live gauge.
func (r *Router) openRouterView(name string) (uint32, viewMeta, error) {
	var lastErr error
	for _, rep := range r.liveReplicas() {
		rv, err := r.sharedView(rep, name)
		if err != nil {
			if _, typed := err.(*server.Error); typed {
				return 0, viewMeta{}, err // unknown view: every replica agrees
			}
			lastErr = err
			continue
		}
		meta := viewMeta{dims: rv.Dims(), height: rv.Height(), count: rv.Count()}
		r.mu.Lock()
		id, ok := r.viewIDs[name]
		if !ok {
			r.nextView++
			id = r.nextView
			r.viewIDs[name] = id
			r.viewNames[id] = name
		}
		r.viewMeta[name] = meta
		r.mu.Unlock()
		return id, meta, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no live replica to resolve view %q", name)
	}
	return 0, viewMeta{}, lastErr
}

// sharedView returns rep's cached remote view on its shared metadata
// connection, resolving (and re-dialing the shared connection) on demand.
func (r *Router) sharedView(rep *replica, name string) (*server.RemoteView, error) {
	rep.mu.Lock()
	cl := rep.cl
	if v, ok := rep.views[name]; ok && cl != nil {
		rep.mu.Unlock()
		return v, nil
	}
	rep.mu.Unlock()
	if cl == nil {
		if err := r.probeReplica(rep); err != nil {
			return nil, err
		}
		rep.mu.Lock()
		cl = rep.cl
		rep.mu.Unlock()
		if cl == nil {
			return nil, io.ErrClosedPipe
		}
	}
	v, err := cl.OpenView(name)
	if err != nil {
		return nil, err
	}
	rep.mu.Lock()
	if rep.views == nil {
		rep.views = make(map[string]*server.RemoteView)
	}
	rep.views[name] = v
	rep.mu.Unlock()
	return v, nil
}
