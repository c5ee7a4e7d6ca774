package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sampleview/internal/record"
	"sampleview/internal/server"
)

// maxParked bounds the quiescent connections kept to one replica between
// streams; past it the oldest is closed. Each costs the replica an idle
// session and goroutine (DESIGN.md, "Fleet architecture": a leg's life).
const maxParked = 32

// replicaConn is one connection the router keeps to a replica — its metadata
// connection, or a stream leg: a client, the tenant it introduced itself as
// (once per connection), and the views resolved on it.
type replicaConn struct {
	cl     *server.Client
	tenant string // "" = none

	mu    sync.Mutex
	views map[string]*server.RemoteView // guarded by mu
}

// connect dials rep and introduces the connection as tenant.
func (r *Router) connect(rep *replica, tenant string) (*replicaConn, error) {
	cl, err := r.dial(rep.addr)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		if err := cl.SetTenant(tenant); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return &replicaConn{cl: cl, tenant: tenant, views: make(map[string]*server.RemoteView)}, nil
}

// view resolves a view by name on the connection, once.
func (c *replicaConn) view(name string) (*server.RemoteView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.views[name]; ok {
		return v, nil
	}
	v, err := c.cl.OpenView(name)
	if err == nil {
		c.views[name] = v
	}
	return v, err
}

// lease takes the newest connection parked at rep for tenant, nil if none.
func (rep *replica) lease(tenant string) *replicaConn {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	for i := len(rep.parked) - 1; i >= 0; i-- {
		if c := rep.parked[i]; c.tenant == tenant {
			rep.parked = append(rep.parked[:i], rep.parked[i+1:]...)
			return c
		}
	}
	return nil
}

// park keeps a quiescent connection for rep's next leg, closing the oldest
// one past maxParked — or this one, if the replica has been marked dead.
func (rep *replica) park(c *replicaConn) {
	rep.mu.Lock()
	if rep.alive {
		rep.parked = append(rep.parked, c)
		c = nil
		if len(rep.parked) > maxParked {
			c = rep.parked[0]
			rep.parked = append(rep.parked[:0], rep.parked[1:]...)
		}
	}
	rep.mu.Unlock()
	if c != nil {
		c.cl.Close()
	}
}

// hangUpLocked closes what the router keeps to rep beyond its leased legs:
// the parked connections and the metadata one. Callers hold rep.mu.
func (rep *replica) hangUpLocked() {
	for _, c := range rep.parked {
		c.cl.Close()
	}
	rep.parked = nil
	if rep.meta != nil {
		rep.meta.cl.Close()
		rep.meta = nil
	}
}

// streamLink is one replica's leg of a routed stream: a connection leased
// for exactly this stream, opened seeded at an explicit position. One
// connection per leg keeps legs independently raceable — the Client
// serializes requests, so a shared one would queue the hedge behind the pull
// it is hedging.
type streamLink struct {
	rep   *replica
	c     *replicaConn
	rs    *server.RemoteStream
	pulls atomic.Int32 // pulls outstanding; the leg is quiescent only at zero
}

// openLink opens the stream's sequence on rep at (seed, pos) — the replica
// fast-forwards past pos itself — over a connection parked for the tenant,
// one round trip, or else a fresh dial. A parked connection that fails on
// transport went stale while idle, which says nothing of the replica: the
// open runs once more on a fresh dial, whose failure is the caller's to
// judge. A typed refusal refuses the stream, not the connection: it parks.
func (r *Router) openLink(rep *replica, tenant, view string, q record.Box, seed uint64, pos int64) (*streamLink, error) {
	c := rep.lease(tenant)
	for {
		reused := c != nil
		if !reused {
			var err error
			if c, err = r.connect(rep, tenant); err != nil {
				return nil, err
			}
			r.legsDialed.Add(1)
		}
		var rs *server.RemoteStream
		rv, err := c.view(view)
		if err == nil {
			rs, err = rv.QueryAt(q, seed, pos)
		}
		if err == nil {
			if reused {
				r.legsReused.Add(1)
			}
			rep.mu.Lock()
			rep.streams++
			rep.mu.Unlock()
			return &streamLink{rep: rep, c: c, rs: rs}, nil
		}
		if typed(err) {
			rep.park(c)
			return nil, err
		}
		c.cl.Close()
		if !reused {
			return nil, err
		}
		c = nil
	}
}

// closeLink returns a leg's placement slot and its connection: parked when
// the leg is quiescent — no pull outstanding, and the cancel acknowledged (or
// the stream retired at EOF), so the replica's slot is free on return —
// closed otherwise: a failed connection, or a hedge loser still in flight.
func (r *Router) closeLink(l *streamLink) {
	if l == nil {
		return
	}
	l.rep.mu.Lock()
	l.rep.streams--
	l.rep.mu.Unlock()
	if l.pulls.Load() == 0 && l.rs.Close() == nil {
		l.rep.park(l.c)
	} else {
		l.c.cl.Close()
	}
}

// routedStream is one client stream as the router serves it: one or two
// replica legs that can each produce the sequence's next batch on demand.
// The canonical position the engine keeps (records the client has been
// sent), not any replica's state, is the stream — legs are disposable and
// interchangeable, which is what makes hedging and migration safe.
type routedStream struct {
	r      *Router
	tenant string // named tenant for replica attribution; "" = none
	// placeKey places the stream's legs on the ring: accounting key + view,
	// so a tenant's streams on one view share replica locality.
	placeKey string
	view     string
	query    record.Box
	seed     uint64

	mu      sync.Mutex
	primary *streamLink // guarded by mu
	shadow  *streamLink // guarded by mu; lazily opened by the first hedge
}

// place opens a leg at pos on the first replica of the placement walk that
// admits it, passing over skip (where a failed or hedged leg is). A replica
// that fails on transport is marked dead; one that answers with a typed
// refusal is alive — another may have room, or a healthy disk — so the walk
// goes on, and the last refusal is the caller's if no replica admits.
func (st *routedStream) place(skip *replica, pos int64) (*streamLink, error) {
	lastErr := fmt.Errorf("fleet: no live replica for view %q", st.view)
	for _, rep := range st.r.aliveFor(st.placeKey) {
		if rep == skip {
			continue
		}
		l, err := st.r.openLink(rep, st.tenant, st.view, st.query, st.seed, pos)
		if err == nil {
			return l, nil
		}
		lastErr = err
		if !typed(err) {
			st.r.markDead(rep)
		}
	}
	return nil, lastErr
}

// leg returns the stream's primary leg, or its shadow, first placing one at
// pos, on a replica other than skip, if the stream has none.
func (st *routedStream) leg(shadow bool, skip *replica, pos int64) (*streamLink, error) {
	slot := &st.primary
	if shadow {
		slot = &st.shadow
	}
	st.mu.Lock()
	l := *slot
	st.mu.Unlock()
	if l != nil {
		return l, nil
	}
	l, err := st.place(skip, pos)
	if err == nil {
		st.mu.Lock()
		*slot = l
		st.mu.Unlock()
	}
	return l, err
}

// pullResult is one leg's answer to a (possibly hedged) pull: the replica's
// batch body as it arrived, not one record of it decoded.
type pullResult struct {
	server.RawBatch
	err  error
	link *streamLink
}

// pull runs one positioned pull into buf and counts it no longer
// outstanding; the caller counted it in.
func (l *streamLink) pull(pos int64, max int, buf []byte) pullResult {
	rb, err := l.rs.PullAt(pos, max, buf)
	l.pulls.Add(-1)
	return pullResult{RawBatch: rb, err: err, link: l}
}

// pullInto is pull as one side of a race, buf the goroutine's from here on,
// paired with the router's WaitGroup; a loser still in flight unblocks when
// the stream closes its connection.
func (st *routedStream) pullInto(ch chan<- pullResult, l *streamLink, pos int64, max int, buf []byte) {
	defer st.r.wg.Done()
	ch <- l.pull(pos, max, buf)
}

// recoverable reports whether a leg failure is survivable by reopening the
// sequence on another replica: transport failures (the replica is gone)
// and the typed codes that mean "this leg cannot serve the position but
// another open could" (reaped or unknown stream, position mismatch, a
// draining replica). Admission and view-layer failures are not — they
// would repeat anywhere and belong to the client.
func recoverable(err error) bool {
	se, ok := err.(*server.Error)
	if !ok {
		return true
	}
	switch se.Code {
	case server.CodeStreamReaped, server.CodeUnknownStream,
		server.CodeStreamPosition, server.CodeShuttingDown:
		return true
	}
	return false
}

// Pull appends to dst up to max records of the stream's sequence from the
// canonical position pos, as the replica's own FBatch body, undecoded:
// without a hedge budget one PullAt on the primary leg in the caller's
// goroutine, with one a race. A leg that fails recoverably is replaced by
// reopening (seed, pos) on the next live replica of the placement walk — live
// migration, invisible to the client beyond latency.
func (st *routedStream) Pull(dst []byte, pos int64, max int) (server.RawBatch, error) {
	pri, err := st.leg(false, nil, pos)
	if err != nil {
		return server.RawBatch{}, err
	}

	var res pullResult
	if d := st.r.cfg.HedgeAfter; d > 0 {
		res = st.race(pri, pos, max, dst, d)
	} else {
		pri.pulls.Add(1)
		res = pri.pull(pos, max, dst)
	}

	if res.err != nil {
		if !recoverable(res.err) {
			return server.RawBatch{}, res.err
		}
		// Migrate: replace the stream's legs with a fresh one at the
		// canonical position and pull once more, off the hedge path.
		st.dropLeg(res.link, res.err)
		repl, err := st.leg(false, res.link.rep, pos)
		if err != nil {
			return server.RawBatch{}, err
		}
		st.r.migrations.Add(1)
		repl.pulls.Add(1)
		if res = repl.pull(pos, max, dst); res.err != nil { // every leg has answered: dst is free again
			return server.RawBatch{}, res.err
		}
	}

	if res.link != pri {
		st.mu.Lock()
		if st.shadow == res.link {
			// The shadow answered first: promote it. The demoted leg stays as
			// the shadow — its replica fast-forwards if it is hedged later.
			st.r.hedgeWins.Add(1)
			st.primary, st.shadow = st.shadow, st.primary
		}
		st.mu.Unlock()
	}
	return res.RawBatch, nil
}

// race pulls on the primary leg against a wall clock hedge timer: past the
// budget the identical positioned pull goes to a shadow leg (on another
// replica, at the same canonical position) and whichever answers first is
// forwarded — the batches are byte-identical by the determinism contract, and
// the loser's replica fast-forwards on its next pull. dst goes to the one
// goroutine that will write it and the winner's buffer comes back: a loser
// in flight keeps the buffer it was given, so no two pulls share one. An
// error comes back only once every leg started has answered.
func (st *routedStream) race(pri *streamLink, pos int64, max int, dst []byte, budget time.Duration) pullResult {
	ch := make(chan pullResult, 2) // one slot per leg: a loser's answer never blocks
	outstanding := 0
	start := func(l *streamLink, buf []byte) {
		outstanding++
		l.pulls.Add(1)
		st.r.wg.Add(1)
		go st.pullInto(ch, l, pos, max, buf)
	}
	start(pri, dst)

	var res pullResult
	timer := time.NewTimer(budget)
	select {
	case res = <-ch:
		timer.Stop()
	case <-timer.C:
		if sh, err := st.leg(true, pri.rep, pos); err == nil {
			st.r.hedgedReads.Add(1)
			start(sh, append([]byte(nil), dst...))
		}
		res = <-ch
	}
	outstanding--

	// If the first answer is a failure but the race is still live, the
	// other leg may yet win it.
	for res.err != nil && outstanding > 0 {
		next := <-ch
		outstanding--
		if next.err == nil {
			st.dropLeg(res.link, res.err)
			res = next
		} else {
			st.dropLeg(next.link, next.err)
		}
	}
	return res
}

// dropLeg removes a failed leg from the stream, marking its replica dead if
// the failure was transport-level (a typed error: alive, merely refused).
func (st *routedStream) dropLeg(l *streamLink, err error) {
	st.mu.Lock()
	switch l {
	case st.primary:
		st.primary = nil
	case st.shadow:
		st.shadow = nil
	}
	st.mu.Unlock()
	if !typed(err) {
		st.r.markDead(l.rep)
	}
	st.r.closeLink(l)
}

// Clock: a routed stream samples no simulated disk of its own.
func (*routedStream) Clock() (used, now time.Duration) { return 0, 0 }

// Close returns both legs.
func (st *routedStream) Close() error {
	st.mu.Lock()
	pri, sh := st.primary, st.shadow
	st.primary, st.shadow = nil, nil
	st.mu.Unlock()
	st.r.closeLink(pri)
	st.r.closeLink(sh)
	return nil
}
