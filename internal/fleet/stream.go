package fleet

import (
	"fmt"
	"sync"
	"time"

	"sampleview/internal/record"
	"sampleview/internal/server"
)

// streamLink is one replica's leg of a routed stream: a dedicated client
// connection carrying exactly this stream, opened seeded at an explicit
// position. A dedicated connection per leg keeps the legs independently
// raceable — the Client serializes requests per connection, so sharing one
// would serialize the hedge against the pull it is hedging.
type streamLink struct {
	rep *replica
	cl  *server.Client
	rs  *server.RemoteStream
}

// openLink dials a dedicated connection to rep and opens the stream's
// sequence there at (seed, pos). The replica fast-forwards past pos
// itself, so the link starts exactly where the client's prefix ends.
func (r *Router) openLink(rep *replica, tenant, view string, q record.Box, seed uint64, pos int64) (*streamLink, error) {
	cl, err := server.Dial(rep.addr)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		if err := cl.SetTenant(tenant); err != nil {
			cl.Close()
			return nil, err
		}
	}
	rv, err := cl.OpenView(view)
	if err != nil {
		cl.Close()
		return nil, err
	}
	rs, err := rv.QueryAt(q, seed, pos)
	if err != nil {
		cl.Close()
		return nil, err
	}
	rep.mu.Lock()
	rep.streams++
	rep.mu.Unlock()
	return &streamLink{rep: rep, cl: cl, rs: rs}, nil
}

// closeLink tears down a leg and returns its placement slot.
func (r *Router) closeLink(l *streamLink) {
	if l == nil {
		return
	}
	l.cl.Close()
	l.rep.mu.Lock()
	l.rep.streams--
	l.rep.mu.Unlock()
}

// routedStream is one client stream as the router serves it: one or two
// replica legs that can each produce the sequence's next batch on demand.
// The canonical position the engine keeps (records the client has been
// sent), not any replica's state, is the stream — legs are disposable and
// interchangeable, which is what makes hedging and migration safe.
type routedStream struct {
	r      *Router
	tenant string // named tenant for replica attribution; "" = none
	key    string // the engine's accounting key, and the placement key
	view   string
	query  record.Box
	seed   uint64

	mu      sync.Mutex
	primary *streamLink // guarded by mu
	shadow  *streamLink // guarded by mu; lazily opened by the first hedge
}

// placeKey is the consistent-hash key the stream's legs are placed by:
// tenant-scoped so a tenant's streams on one view share replica locality.
func (st *routedStream) placeKey() string { return st.key + "/" + st.view }

// open places the stream's first leg at pos: candidates in ring-walk order, dead
// replicas skipped, replicas that fail typed-admission remembered (the
// last such rejection is surfaced if no replica admits), replicas that
// fail on transport marked dead. A typed non-admission failure (unknown
// view, unsupported seeded open) stops the walk — every replica would
// refuse identically.
func (st *routedStream) open(pos int64) (*streamLink, error) {
	var lastReject error
	for _, rep := range st.r.aliveFor(st.placeKey()) {
		l, err := st.r.openLink(rep, st.tenant, st.view, st.query, st.seed, pos)
		if err == nil {
			return l, nil
		}
		if se, ok := err.(*server.Error); ok {
			if server.IsAdmissionReject(err) || se.Code == server.CodeShuttingDown {
				lastReject = err
				continue
			}
			return nil, err
		}
		st.r.markDead(rep)
	}
	if lastReject != nil {
		return nil, lastReject
	}
	return nil, fmt.Errorf("fleet: no live replica for view %q", st.view)
}

// reopen places a replacement leg at pos, skipping the replica a failed
// leg was on (it may be alive but unable to serve this stream).
func (st *routedStream) reopen(skip *replica, pos int64) (*streamLink, error) {
	var lastErr error
	for _, rep := range st.r.aliveFor(st.placeKey()) {
		if skip != nil && rep == skip {
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
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no live replica for view %q", st.view)
	}
	return nil, lastErr
}

// pullResult is one leg's answer in a (possibly hedged) pull race: the
// replica's batch body as it arrived, not one record of it decoded.
type pullResult struct {
	server.RawBatch
	err    error
	link   *streamLink
	hedged bool
}

// pullInto runs one positioned pull on a leg, the body landing in buf
// (which the goroutine owns from here on), and delivers the result. It
// runs as a goroutine paired with the router's WaitGroup; a leg whose race
// is already lost unblocks when the stream (or the router) closes the
// leg's connection.
func (st *routedStream) pullInto(ch chan<- pullResult, l *streamLink, pos int64, max int, hedged bool, buf []byte) {
	defer st.r.wg.Done()
	rb, err := l.rs.PullAt(pos, max, buf)
	ch <- pullResult{RawBatch: rb, err: err, link: l, hedged: hedged}
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

// Pull appends to dst up to max records of the stream's sequence starting at
// the canonical position pos. The primary leg races a wall clock hedge timer:
// past the HedgeAfter budget the router issues the identical positioned
// pull on a shadow leg (opened on another replica at the same canonical
// position) and forwards whichever leg answers first — the batches are
// byte-identical by the determinism contract, and the losing leg's replica
// fast-forwards on its next pull rather than re-serving the prefix. A leg
// that fails recoverably is replaced by reopening (seed, pos) on the next
// live replica in the placement walk — live migration, invisible to the
// client beyond latency. The batch comes back as the replica's own FBatch
// body, not one record of it decoded. dst goes to the one leg goroutine that
// will write it, and the winner's buffer comes back: a leg still in flight
// when its race is lost keeps the buffer it was given, so no two pulls ever
// share one.
func (st *routedStream) Pull(dst []byte, pos int64, max int) (server.RawBatch, error) {
	st.mu.Lock()
	pri := st.primary
	st.mu.Unlock()
	if pri == nil {
		var err error
		if pri, err = st.reopen(nil, pos); err != nil {
			return server.RawBatch{}, err
		}
		st.mu.Lock()
		st.primary = pri
		st.mu.Unlock()
	}

	ch := make(chan pullResult, 2)
	outstanding := 1
	st.r.wg.Add(1)
	go st.pullInto(ch, pri, pos, max, false, dst)

	var res pullResult
	if d := st.r.cfg.HedgeAfter; d > 0 {
		timer := time.NewTimer(d)
		select {
		case res = <-ch:
			timer.Stop()
		case <-timer.C:
			if sh := st.ensureShadow(pri, pos); sh != nil {
				st.r.stats.HedgedReads.Add(1)
				outstanding++
				st.r.wg.Add(1)
				go st.pullInto(ch, sh, pos, max, true, append([]byte(nil), dst...))
			}
			res = <-ch
		}
	} else {
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

	if res.err != nil {
		if !recoverable(res.err) {
			return server.RawBatch{}, res.err
		}
		// Migrate: replace the stream's legs with a fresh one at the
		// canonical position and pull once more, off the hedge path.
		st.dropLeg(res.link, res.err)
		repl, err := st.reopen(res.link.rep, pos)
		if err != nil {
			return server.RawBatch{}, err
		}
		st.r.stats.Migrations.Add(1)
		st.mu.Lock()
		st.primary = repl
		st.mu.Unlock()
		rb, err := repl.rs.PullAt(pos, max, dst) // every leg has answered: dst is free again
		if err != nil {
			return server.RawBatch{}, err
		}
		res = pullResult{RawBatch: rb, link: repl}
	}

	st.mu.Lock()
	if res.hedged && st.shadow == res.link {
		// The shadow answered first: promote it. The demoted leg stays as
		// the shadow — its replica fast-forwards if it is hedged later.
		st.r.stats.HedgeWins.Add(1)
		st.primary, st.shadow = st.shadow, st.primary
	}
	st.mu.Unlock()
	return res.RawBatch, nil
}

// ensureShadow returns the stream's shadow leg, opening it at pos on the
// next live replica in the placement walk if the stream has none yet.
func (st *routedStream) ensureShadow(pri *streamLink, pos int64) *streamLink {
	st.mu.Lock()
	sh := st.shadow
	st.mu.Unlock()
	if sh != nil {
		return sh
	}
	sh, err := st.reopen(pri.rep, pos)
	if err != nil {
		return nil
	}
	st.mu.Lock()
	if st.shadow == nil {
		st.shadow = sh
		st.mu.Unlock()
		return sh
	}
	// Lost a race installing it; keep the installed one.
	installed := st.shadow
	st.mu.Unlock()
	st.r.closeLink(sh)
	return installed
}

// dropLeg removes a failed leg from the stream, closing its connection and
// marking its replica dead when the failure was transport-level (a typed
// error means the replica is alive and merely refused this leg).
func (st *routedStream) dropLeg(l *streamLink, err error) {
	if l == nil {
		return
	}
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

// Close tears down both legs.
func (st *routedStream) Close() error {
	st.mu.Lock()
	pri, sh := st.primary, st.shadow
	st.primary, st.shadow = nil, nil
	st.mu.Unlock()
	st.r.closeLink(pri)
	st.r.closeLink(sh)
	return nil
}
