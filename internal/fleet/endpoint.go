package fleet

import (
	"errors"
	"fmt"

	"sampleview/internal/server"
)

// endpoint is the router as its engine sees it: the fleet behind the
// server.Endpoint surface. The engine speaks the exact single-server
// protocol — one response frame per request frame — so existing clients and
// tools work against a fleet unchanged; what is here is what only a router
// does with a request.
type endpoint struct{ *Router }

var errNoReplica = errors.New("no live replica")

// typed reports whether err is a replica's own typed answer, as opposed to
// a transport failure: the replica is alive and every replica would say the
// same.
func typed(err error) bool {
	_, ok := err.(*server.Error)
	return ok
}

// OpenView resolves a view name against a live replica and assigns (or
// reuses) the router's own id for it. The record count is the count at
// resolution time; like a single server's view-info response it is a
// snapshot, not a live gauge.
func (r endpoint) OpenView(name string) (server.ViewInfo, error) {
	lastErr := fmt.Errorf("fleet: no live replica to resolve view %q", name)
	for _, rep := range r.liveReplicas() {
		rv, err := r.sharedView(rep, name)
		if err != nil {
			if typed(err) {
				return server.ViewInfo{}, err // unknown view: every replica agrees
			}
			lastErr = err
			continue
		}
		r.mu.Lock()
		i := 0
		for i < len(r.views) && r.views[i].name != name {
			i++
		}
		if i == len(r.views) {
			r.views = append(r.views, &routerView{name: name})
		}
		r.views[i].dims.Store(int32(rv.Dims()))
		r.mu.Unlock()
		return server.ViewInfo{ViewID: uint32(i + 1), Dims: uint8(rv.Dims()), Height: uint8(rv.Height()), Count: rv.Count()}, nil
	}
	return server.ViewInfo{}, lastErr
}

func (r endpoint) OpenStream(tenant, key string, req server.OpenStreamReq) (server.EndpointStream, error) {
	name, err := r.checkQuery(req.ViewID, req.Query.Dims())
	if err != nil {
		return nil, err
	}
	// A client that asked for a specific (seed, position) gets exactly it
	// (a router can front another router); plain opens get a router-derived
	// seed, which is what makes the stream migratable at all.
	seed := req.Seed
	if !req.Seeded {
		seed = r.streamSeed()
	}
	st := &routedStream{r: r.Router, tenant: tenant, placeKey: key + "/" + name, view: name, query: req.Query, seed: seed}
	if _, err := st.leg(false, nil, req.StartPos); err != nil {
		if !typed(err) {
			err = &server.Error{Code: server.CodeServerStreams, Msg: err.Error()}
		}
		return nil, err
	}
	return st, nil
}

// Estimate is stateless: it is served from the placement walk's first live
// replica, failing over on transport errors.
func (r endpoint) Estimate(req server.EstimateReq) (float64, error) {
	name, err := r.checkQuery(req.ViewID, req.Query.Dims())
	if err != nil {
		return 0, err
	}
	err = errNoReplica
	for _, rep := range r.aliveFor(name) {
		var rv *server.RemoteView
		if rv, err = r.sharedView(rep, name); err != nil {
			continue
		}
		var est float64
		if est, err = rv.EstimateCount(req.Query); err == nil || typed(err) {
			return est, err
		}
		r.markDead(rep)
	}
	return 0, err
}

// Write fans an append or delete out to every live replica.
func (r endpoint) Write(op server.FrameType, req server.WriteReq) (uint32, error) {
	apply := (*server.RemoteView).Append
	if op == server.FDeleteRecs {
		apply = (*server.RemoteView).Delete
	}
	return r.fanOut(req.ViewID, func(rv *server.RemoteView) (int, error) { return apply(rv, req.Records) })
}

// Flush fans a flush out to every live replica.
func (r endpoint) Flush(viewID uint32) (uint32, error) {
	return r.fanOut(viewID, (*server.RemoteView).Flush)
}

// fanOut applies one write to every live replica. The per-view write lock
// serializes the fleet's writes so all replicas apply them in one order; the
// first reachable replica decides admission (its typed rejection is
// forwarded and nothing else is attempted) and its ack is the response, and
// a follower that fails after the decider accepted is marked dead — it can
// no longer be byte-identical with the fleet.
func (r endpoint) fanOut(viewID uint32, apply func(*server.RemoteView) (int, error)) (uint32, error) {
	v, err := r.viewByID(viewID)
	if err != nil {
		return 0, err
	}
	v.writeMu.Lock()
	defer v.writeMu.Unlock()

	var ack uint32
	decided := false
	err = errNoReplica
	for _, rep := range r.liveReplicas() {
		rv, verr := r.sharedView(rep, v.name)
		if verr != nil {
			if !decided {
				err = verr
			}
			continue
		}
		n, werr := apply(rv)
		switch {
		case werr == nil && !decided:
			ack, decided, err = uint32(n), true, nil
		case werr != nil && !decided && typed(werr):
			return 0, werr // the decider's rejection is the fleet's
		case werr != nil:
			r.markDead(rep)
			if !decided {
				err = werr
			}
		}
	}
	return ack, err
}

func (r endpoint) ListViews() ([]server.ViewListEntry, error) {
	err := errNoReplica
	for _, rep := range r.liveReplicas() {
		rep.mu.Lock()
		c := rep.meta
		rep.mu.Unlock()
		if c == nil {
			continue
		}
		var views []server.ViewListEntry
		if views, err = c.cl.ListViews(); err == nil {
			return views, nil
		}
		if !typed(err) {
			r.markDead(rep)
		}
	}
	return nil, err
}

func (r endpoint) Identity() (string, int) { return "router", r.capacity() }

// TenantStreamCap resolves the per-tenant stream cap at this instant: the
// configured cap, or a fair share of fleet capacity over active tenants.
func (r endpoint) TenantStreamCap(active int) int {
	if r.cfg.TenantStreams > 0 {
		return r.cfg.TenantStreams
	}
	return max(r.capacity()/max(active, 1), 1)
}

// FillSnapshot lays the fleet fields over the engine's snapshot: hedging,
// migration, and replica health.
func (r endpoint) FillSnapshot(snap *server.StatsSnapshot) {
	snap.HedgedReads = r.hedgedReads.Load()
	snap.HedgeWins = r.hedgeWins.Load()
	snap.Migrations = r.migrations.Load()
	snap.ReplicasLive = int64(r.ReplicasLive())
}

func (endpoint) Idle() {}

// capacity is the stream capacity of the replicas currently alive.
func (r *Router) capacity() int {
	capacity := 0
	for _, rep := range r.reps {
		rep.mu.Lock()
		if rep.alive {
			capacity += rep.maxStr
		}
		rep.mu.Unlock()
	}
	return capacity
}

// viewByID resolves a router view id.
func (r *Router) viewByID(id uint32) (*routerView, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id-1 >= uint32(len(r.views)) { // id 0 wraps past any length
		return nil, &server.Error{Code: server.CodeUnknownView, Msg: "unknown view id"}
	}
	return r.views[id-1], nil
}

// checkQuery resolves the view a stream or estimate request names and checks
// the predicate's dimensions against its shape.
func (r *Router) checkQuery(viewID uint32, dims int) (string, error) {
	v, err := r.viewByID(viewID)
	if err != nil {
		return "", err
	}
	if dims != int(v.dims.Load()) {
		return "", &server.Error{Code: server.CodeBadRequest, Msg: "query dimensions do not match the view"}
	}
	return v.name, nil
}

// sharedView resolves a view on rep's metadata connection, (re)dialing the
// connection on demand.
func (r *Router) sharedView(rep *replica, name string) (*server.RemoteView, error) {
	rep.mu.Lock()
	c := rep.meta
	rep.mu.Unlock()
	if c == nil {
		var err error
		if c, err = r.probeReplica(rep); err != nil {
			return nil, err
		}
	}
	return c.view(name)
}
