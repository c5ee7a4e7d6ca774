package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint is what an Engine hosts: the part of serving the wire protocol
// that differs between a server over local views and a router over a fleet.
// The engine owns everything else — connections, framing, request decode,
// tenants, stream ids and positions, admission, error frames, counters — and
// calls an Endpoint holding none of its own locks, from many connections at
// once.
//
// An error an Endpoint returns goes to the client as an FError frame: an
// *Error with its own code and message, anything else as CodeInternal. View
// ids are the Endpoint's: the engine passes them through undecoded.
type Endpoint interface {
	// OpenView resolves a view by name.
	OpenView(name string) (ViewInfo, error)
	// OpenStream opens a stream the engine has already admitted, standing at
	// req.StartPos when req.Seeded and at 0 otherwise. tenant is the name the
	// connection set ("" if none) and key its quota unit, unique to the
	// connection when it set none. The engine closes every stream it was
	// given, exactly once.
	OpenStream(tenant, key string, req OpenStreamReq) (EndpointStream, error)
	// Estimate answers an estimate request.
	Estimate(req EstimateReq) (float64, error)
	// Write applies an FAppend or FDeleteRecs batch the engine has already
	// rate-admitted and returns how many entries were applied — counted even
	// beside an error, when a batch failed partway.
	Write(op FrameType, req WriteReq) (uint32, error)
	// Flush persists a view's buffered writes and returns how many it covered.
	Flush(viewID uint32) (uint32, error)
	// ListViews enumerates the servable views.
	ListViews() ([]ViewListEntry, error)
	// Identity is the replica id and stream capacity a replica-info response
	// reports beside the engine's open-stream count and draining flag.
	Identity() (replicaID string, maxStreams int)
	// TenantStreamCap is the most streams one tenant may hold open while
	// active tenants (this one included) are accounted.
	TenantStreamCap(active int) int
	// FillSnapshot adds the Endpoint's own fields to a snapshot the engine
	// has filled with everything it counts.
	FillSnapshot(*StatsSnapshot)
	// Idle is called when the last request in flight on any connection has
	// been answered.
	Idle()
}

// EndpointStream is one open stream of an Endpoint. The engine calls Pull
// from one goroutine at a time; Close and Clock may race a Pull.
type EndpointStream interface {
	// Pull appends to dst one FBatch body holding up to max records of the
	// stream's sequence from position pos on — first discarding any the stream
	// has not yet passed: pos is never behind it — and returns dst so extended
	// as Body, with the record count, whether the sequence is exhausted, and
	// the stream's position after the call (also beside an error, when a
	// discard got partway). The stream id in the body is the engine's to set.
	// dst is the stream's from the call on — a stream racing two sources may
	// return either's buffer — and Body the engine's until the next Pull.
	Pull(dst []byte, pos int64, max int) (RawBatch, error)
	// Close releases the stream; a Pull it interrupts fails.
	Close() error
	// Clock is the simulated I/O time the stream has consumed and the
	// simulated time of what it samples, which the idle reaper and the
	// simulated-I/O counters run on; zeros from a stream with no such clock.
	Clock() (used, now time.Duration)
}

// engineCounters is the live counter set of one engine. All fields are
// atomics: the hot request path updates them without taking the engine lock,
// and sums commute, so snapshots are consistent enough for observability
// without stalling serving.
type engineCounters struct {
	ConnsAccepted   atomic.Int64
	ConnsClosed     atomic.Int64
	ConnsRejected   atomic.Int64
	StreamsOpened   atomic.Int64
	StreamsClosed   atomic.Int64 // cancel + EOF + session teardown
	StreamsReaped   atomic.Int64
	BatchesServed   atomic.Int64
	RecordsServed   atomic.Int64
	EstimatesServed atomic.Int64
	BadFrames       atomic.Int64
	BytesRead       atomic.Int64
	BytesWritten    atomic.Int64
	SimIONanos      atomic.Int64 // simulated I/O time charged by served streams
	RecordsIngested atomic.Int64 // records accepted by append frames
	RecordsDeleted  atomic.Int64 // tombstones recorded by delete frames
	FlushesServed   atomic.Int64 // explicit flush frames honored
	// errorsSent counts the FError frames sent in answer to a request, by
	// code: the rejection and fault counters of a snapshot are read off it.
	errorsSent [numCodes]atomic.Int64
}

// tenantState is one tenant's admission accounting: its open-stream count
// and its write-rate token bucket, shared across every connection
// attributed to the tenant. Connections without a tenant each get a
// private tenantState under a per-connection key, which reduces to
// per-connection accounting.
type tenantState struct {
	// The engine's lock covers the two tallies, which keeps a tenant's count
	// and the engine-wide openStreams total moving in lockstep.
	streams int
	conns   int // live sessions attributed via set-tenant

	// Write-rate token bucket (Config.WriteRate / WriteBurst). It refills
	// continuously on the wall clock from tbLast, the instant of the last
	// draw; the zero instant of a new bucket is long enough ago to fill it.
	tbMu     sync.Mutex
	tbTokens float64   // guarded by tbMu
	tbLast   time.Time // guarded by tbMu
}

// Engine serves the wire protocol for one Endpoint: it accepts connections,
// runs each one's request loop and drains them on Shutdown. Server and
// fleet.Router are each an Engine over their own Endpoint. All methods are
// safe for concurrent use.
type Engine struct {
	cfg   Config
	ep    Endpoint
	stats engineCounters

	mu          sync.Mutex
	sessions    map[*session]struct{}   // guarded by mu
	listeners   []net.Listener          // guarded by mu
	tenants     map[string]*tenantState // guarded by mu; admission accounting per tenant key
	openStreams int                     // guarded by mu; admission-controlled total
	nextSession uint64                  // guarded by mu
	draining    bool                    // guarded by mu

	// inFlight counts requests currently being handled across all sessions;
	// the Endpoint is told when it drops to zero.
	inFlight atomic.Int64

	wg       sync.WaitGroup
	shutOnce sync.Once
}

// NewEngine returns an engine serving ep. cfg is taken as given, no defaults
// applied, and a zero field switches its check off: MaxStreams and
// MaxStreamsPerConn the two stream caps, IdleTimeout the reaper,
// RequestTimeout the per-request deadline, WriteRate the write bucket.
// MaxBatch must be set; the fields about tenants' caps, replica identity and
// write backlog are the Endpoint's and are not read.
func NewEngine(ep Endpoint, cfg Config) *Engine {
	return &Engine{
		cfg:      cfg,
		ep:       ep,
		sessions: make(map[*session]struct{}),
		tenants:  make(map[string]*tenantState),
	}
}

// Serve accepts connections on ln until the listener fails or Shutdown is
// called; Shutdown makes it return nil. Each connection gets a session
// goroutine.
func (e *Engine) Serve(ln net.Listener) error {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		ln.Close()
		return nil
	}
	e.listeners = append(e.listeners, ln)
	e.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if e.isDraining() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		e.stats.ConnsAccepted.Add(1)
		e.wg.Add(1)
		go e.serveConn(conn)
	}
}

func (e *Engine) isDraining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Shutdown gracefully stops the engine: listeners close, sessions finish
// the request they are serving (an in-flight batch is fully written before
// its connection closes — no acknowledged batch is ever dropped), idle
// sessions are disconnected, and Shutdown returns once every session
// goroutine has exited. It is idempotent; concurrent callers all block
// until the drain completes (as callers of one sync.Once do).
func (e *Engine) Shutdown() {
	e.shutOnce.Do(func() {
		e.mu.Lock()
		e.draining = true
		lns := append([]net.Listener(nil), e.listeners...)
		sessions := e.sessionsLocked()
		e.mu.Unlock()

		for _, ln := range lns {
			ln.Close()
		}
		// drainClose waits for the session's in-flight request (if any) to
		// finish writing its response, then severs the connection so the
		// read loop unblocks.
		for _, sess := range sessions {
			sess.drainClose()
		}
		e.wg.Wait()
	})
}

// sessionsLocked copies the live session set. Callers hold e.mu.
func (e *Engine) sessionsLocked() []*session {
	sessions := make([]*session, 0, len(e.sessions))
	for sess := range e.sessions {
		sessions = append(sessions, sess)
	}
	return sessions
}

// register enrolls a new session; it fails once draining has started.
func (e *Engine) register(sess *session) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return false
	}
	e.nextSession++
	sess.id = e.nextSession
	e.sessions[sess] = struct{}{}
	return true
}

func (e *Engine) unregister(sess *session) {
	e.mu.Lock()
	delete(e.sessions, sess)
	e.mu.Unlock()
	closed := sess.closeStreams(nil, false)
	e.stats.StreamsClosed.Add(int64(closed))
	key, named := sess.tenantKey()
	e.releaseStreams(key, closed)
	e.dropTenant(key, named)
}

// tenantKeyFor namespaces a tenant name so it can never collide with the
// per-connection fallback keys ("conn:<session id>").
func tenantKeyFor(name string) string { return "tenant:" + name }

// tenantLocked returns key's accounting bucket, creating it on first use.
// Callers hold e.mu.
func (e *Engine) tenantLocked(key string) *tenantState {
	ts, ok := e.tenants[key]
	if !ok {
		ts = &tenantState{}
		e.tenants[key] = ts
	}
	return ts
}

// admitStream claims one engine-wide stream slot and one slot of the given
// tenant key's cap, or says why not: the engine is draining or either cap is
// reached.
func (e *Engine) admitStream(key string) *Error {
	// The tenant's cap is the Endpoint's to say, given how many tenants are
	// accounted with this one among them; it is asked outside the lock.
	e.mu.Lock()
	e.tenantLocked(key)
	active := len(e.tenants)
	e.mu.Unlock()
	tenantCap := e.ep.TenantStreamCap(active)

	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tenantLocked(key)
	switch {
	case e.draining:
		return &Error{Code: CodeShuttingDown, Msg: "server shutting down"}
	case e.cfg.MaxStreams > 0 && e.openStreams >= e.cfg.MaxStreams:
		return &Error{Code: CodeServerStreams, Msg: "server stream limit reached"}
	case ts.streams >= tenantCap:
		return &Error{Code: CodeTenantStreams, Msg: "tenant stream limit reached"}
	}
	e.openStreams++
	ts.streams++
	return nil
}

// releaseStreams returns n stream slots, engine-wide and to the tenant key
// they were admitted under.
func (e *Engine) releaseStreams(key string, n int) {
	if n == 0 {
		return
	}
	e.mu.Lock()
	e.openStreams -= n
	if ts, ok := e.tenants[key]; ok {
		ts.streams -= n
	}
	e.mu.Unlock()
}

// admitRate draws n entries from the tenant key's write-rate token bucket,
// reporting whether the batch is admitted. The bucket deliberately refills
// on the "wall clock": rate admission paces real client traffic, a pressure
// the simulated disk clock cannot see. Disabled (always true) when
// Config.WriteRate is 0.
func (e *Engine) admitRate(key string, n int) bool {
	rate := e.cfg.WriteRate
	if rate <= 0 || n <= 0 {
		return true
	}
	e.mu.Lock()
	ts := e.tenantLocked(key)
	e.mu.Unlock()
	burst := float64(e.cfg.WriteBurst)
	ts.tbMu.Lock()
	defer ts.tbMu.Unlock()
	now := time.Now()
	ts.tbTokens = min(ts.tbTokens+now.Sub(ts.tbLast).Seconds()*rate, burst)
	ts.tbLast = now
	if ts.tbTokens < float64(n) {
		return false
	}
	ts.tbTokens -= float64(n)
	return true
}

// dropTenant releases a session's attribution at teardown, deleting the
// accounting bucket once nothing references it (named tenants when their
// last connection leaves; per-connection keys always, since only the owning
// session ever used them) — so a fair share of capacity flows back to the
// tenants that are actually present.
func (e *Engine) dropTenant(key string, named bool) {
	e.mu.Lock()
	if ts, ok := e.tenants[key]; ok {
		if named {
			ts.conns--
		}
		if ts.conns <= 0 && ts.streams <= 0 {
			delete(e.tenants, key)
		}
	}
	e.mu.Unlock()
}

// reapIdle closes streams idle past IdleTimeout on the simulated clock of
// what they sample. It runs on the open-stream path when the engine-wide cap
// is exhausted — the moment admission slots are contended — so reaping needs
// no wall-clock timer: an abandoned stream is collected as soon as other
// traffic has both advanced the simulated disk and run out of slots.
func (e *Engine) reapIdle() {
	if e.cfg.IdleTimeout <= 0 {
		return
	}
	e.mu.Lock()
	sessions := e.sessionsLocked()
	e.mu.Unlock()
	idle := func(st *servedStream) bool {
		_, now := st.s.Clock()
		return time.Duration(int64(now)-st.lastActive.Load()) > e.cfg.IdleTimeout
	}
	total := 0
	for _, sess := range sessions {
		n := sess.closeStreams(idle, true)
		sess.counters.StreamsReaped.Add(int64(n))
		key, _ := sess.tenantKey()
		e.releaseStreams(key, n)
		total += n
	}
	e.stats.StreamsReaped.Add(int64(total))
	e.stats.StreamsClosed.Add(int64(total))
}

// Snapshot returns a point-in-time copy of the engine's counters, one row
// per live session, and whatever the Endpoint adds to them.
func (e *Engine) Snapshot() *StatsSnapshot {
	e.mu.Lock()
	sessions := e.sessionsLocked()
	openStreams := int64(e.openStreams)
	tenants := int64(len(e.tenants))
	e.mu.Unlock()

	c := &e.stats
	snap := &StatsSnapshot{
		OpenConns:        int64(len(sessions)),
		OpenStreams:      openStreams,
		ConnsAccepted:    c.ConnsAccepted.Load(),
		ConnsRejected:    c.ConnsRejected.Load(),
		StreamsOpened:    c.StreamsOpened.Load(),
		StreamsClosed:    c.StreamsClosed.Load(),
		StreamsReaped:    c.StreamsReaped.Load(),
		BatchesServed:    c.BatchesServed.Load(),
		RecordsServed:    c.RecordsServed.Load(),
		EstimatesServed:  c.EstimatesServed.Load(),
		RejectedServer:   c.errorsSent[CodeServerStreams].Load(),
		RejectedConn:     c.errorsSent[CodeConnStreams].Load(),
		RejectedDrain:    c.errorsSent[CodeShuttingDown].Load(),
		BadFrames:        c.BadFrames.Load(),
		BytesRead:        c.BytesRead.Load(),
		BytesWritten:     c.BytesWritten.Load(),
		SimIO:            time.Duration(c.SimIONanos.Load()),
		TransientErrors:  c.errorsSent[CodeTransient].Load(),
		DegradedErrors:   c.errorsSent[CodeDegraded].Load(),
		RecordsIngested:  c.RecordsIngested.Load(),
		RecordsDeleted:   c.RecordsDeleted.Load(),
		FlushesServed:    c.FlushesServed.Load(),
		RejectedWrites:   c.errorsSent[CodeReadOnly].Load() + c.errorsSent[CodeWriteBacklog].Load(),
		RejectedThrottle: c.errorsSent[CodeWriteThrottled].Load(),
		RejectedTenant:   c.errorsSent[CodeTenantStreams].Load(),
		TenantsActive:    tenants,
	}
	for _, sess := range sessions {
		snap.Sessions = append(snap.Sessions, sess.snapshot())
	}
	e.ep.FillSnapshot(snap)
	return snap
}
