// Package fleet is the replicated multi-tenant serving tier: a router
// process that fronts N svserve replicas, each hosting the same views over
// independent simulated disks, behind the exact wire protocol a single
// server speaks — clients need no changes to talk to a fleet.
//
// The tier leans on one property the storage layers were built to provide:
// a sample stream is a pure function of (view bytes, query, seed), so its
// entire client-visible state is a seed and a prefix position — a few bytes.
// That makes the expensive problems of replicated serving almost free here:
//
//   - Placement: open-stream requests land on a replica chosen by
//     consistent-hash over (tenant, view) with load-aware spill, so a
//     tenant's streams concentrate (cache locality) until a replica is hot,
//     then overflow along the ring walk.
//   - Hedged reads: when a replica takes longer than a latency budget to
//     answer a pull, the router issues the same positioned pull on a second
//     replica and forwards whichever answers first. Determinism makes the
//     two responses byte-identical; positions make the duplicate prefix
//     suppressible server-side (the loser fast-forwards, never re-sending).
//   - Migration: when a replica dies or drains, the router reopens each of
//     its streams on a surviving replica at the same (seed, position) and
//     the client sees the same record sequence continue — no gap, no
//     duplicates, no visible failover at all.
//
// Quotas are per tenant, not per connection: the router tracks every
// tenant's open streams and write tokens across all of its connections and
// replicas, admitting by a fixed cap or by fair share of fleet capacity.
//
// The replica-consistency invariant: replicas of a view must hold
// byte-identical storage state for seeded streams to agree. The router
// preserves it by serializing writes per view and fanning them out to every
// replica in the same order; replica-local background maintenance
// (compaction schedules that depend on idle timing) must be disabled or
// coordinated for fleet-replicated views, which the fleet tools do by
// serving static views or catalogs with maintenance thresholds the drill
// never crosses.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sampleview/internal/server"
)

// Config tunes the router. Replicas is required; everything else defaults.
type Config struct {
	// Replicas lists the replica server addresses ("host:port"). Their
	// order is the fleet's replica index space, so every router configured
	// with the same list computes the same placement ring.
	Replicas []string
	// HedgeAfter is the latency budget a primary replica gets to answer a
	// pull before the router hedges it against a second replica. 0
	// disables hedging.
	HedgeAfter time.Duration
	// SpillThreshold is the replica-load fraction (of the replica's own
	// stream cap) past which placement spills to the next replica on the
	// ring walk (default 0.8).
	SpillThreshold float64
	// TenantStreams caps open streams per tenant fleet-wide. 0 selects
	// fair share: the fleet's total stream capacity divided by the number
	// of active tenants, re-evaluated at each admission.
	TenantStreams int
	// TenantWriteRate / TenantWriteBurst are the per-tenant write token
	// bucket, enforced at the router so every replica sees exactly the
	// batches that were admitted (replica-side rate admission would let
	// replicas disagree about which batch was throttled, diverging their
	// state). 0 disables write-rate admission.
	TenantWriteRate  float64
	TenantWriteBurst int
	// VNodes is the consistent-hash ring's virtual nodes per replica
	// (default 64).
	VNodes int
	// Seed drives stream-seed derivation. Fixed seed, fixed stream seeds.
	Seed uint64
	// MaxBatch caps records per proxied batch (default 4096).
	MaxBatch int
}

func (c Config) withDefaults() Config {
	if c.SpillThreshold <= 0 || c.SpillThreshold > 1 {
		c.SpillThreshold = 0.8
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.TenantWriteRate > 0 && c.TenantWriteBurst <= 0 {
		c.TenantWriteBurst = c.MaxBatch
		if r := int(c.TenantWriteRate); r > c.TenantWriteBurst {
			c.TenantWriteBurst = r
		}
	}
	return c
}

// replica is the router's view of one replica server: its shared metadata
// connection (estimates, writes, list-views — per-stream traffic uses
// dedicated connections), its last known identity and load, and whether
// the router still considers it alive.
type replica struct {
	idx  int
	addr string

	mu      sync.Mutex
	cl      *server.Client                // guarded by mu; shared metadata/write conn, nil until dialed
	views   map[string]*server.RemoteView // guarded by mu; views resolved on the shared conn
	id      string                        // guarded by mu; ReplicaID from the last replica-info
	maxStr  int                           // guarded by mu; the replica's stream cap
	alive   bool                          // guarded by mu
	streams int                           // guarded by mu; streams the router currently places here
}

// routerCounters is what only a router counts; the engine counts the rest.
type routerCounters struct {
	HedgedReads atomic.Int64
	HedgeWins   atomic.Int64
	Migrations  atomic.Int64
}

// Router fronts a fleet of replicas behind the single-server wire
// protocol: it is a server.Engine — Serve is the engine's, and Snapshot,
// which lays the fleet fields over the standard stats frame, so svload works
// against a router unchanged — over the fleet. Create with New, call Connect
// to dial the fleet, then Serve.
type Router struct {
	*server.Engine
	cfg   Config
	ring  *ring
	reps  []*replica
	stats routerCounters

	mu        sync.Mutex
	viewIDs   map[string]uint32      // guarded by mu; view name -> router view id
	viewNames map[uint32]string      // guarded by mu
	viewMeta  map[string]viewMeta    // guarded by mu; cached open-view info
	writeMu   map[string]*sync.Mutex // guarded by mu; per-view write serialization
	nextView  uint32                 // guarded by mu

	seedCtr atomic.Uint64
	wg      sync.WaitGroup // the legs' pull goroutines
}

type viewMeta struct {
	dims   int
	height int
	count  int64
}

// New returns a router for the given fleet. Call Connect before Serve.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	r := &Router{
		cfg:       cfg,
		ring:      newRing(len(cfg.Replicas), cfg.VNodes),
		viewIDs:   make(map[string]uint32),
		viewNames: make(map[uint32]string),
		viewMeta:  make(map[string]viewMeta),
		writeMu:   make(map[string]*sync.Mutex),
	}
	// The engine's server-wide and per-connection stream caps, idle reaper
	// and request deadline stay off: the replicas enforce their own. The
	// write bucket is on at the router so every replica sees exactly the
	// batches that were admitted.
	r.Engine = server.NewEngine(endpoint{r}, server.Config{
		MaxBatch:   cfg.MaxBatch,
		WriteRate:  cfg.TenantWriteRate,
		WriteBurst: cfg.TenantWriteBurst,
	})
	for i, addr := range cfg.Replicas {
		r.reps = append(r.reps, &replica{idx: i, addr: addr, views: make(map[string]*server.RemoteView)})
	}
	return r, nil
}

// Connect dials every replica and fetches its identity. At least one
// replica must answer for Connect to succeed; the rest are retried lazily.
func (r *Router) Connect() error {
	live := 0
	var firstErr error
	for _, rep := range r.reps {
		if err := r.probeReplica(rep); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		live++
	}
	if live == 0 {
		return fmt.Errorf("fleet: no replica reachable: %w", firstErr)
	}
	return nil
}

// probeReplica (re)dials a replica's shared connection and refreshes its
// identity and load, marking it alive on success.
func (r *Router) probeReplica(rep *replica) error {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.cl == nil {
		cl, err := server.Dial(rep.addr)
		if err != nil {
			rep.alive = false
			return fmt.Errorf("fleet: replica %s: %w", rep.addr, err)
		}
		rep.cl = cl
		rep.views = make(map[string]*server.RemoteView)
	}
	info, err := rep.cl.ReplicaInfo()
	if err != nil {
		rep.cl.Close()
		rep.cl = nil
		rep.alive = false
		return fmt.Errorf("fleet: replica %s: %w", rep.addr, err)
	}
	rep.id = info.ReplicaID
	if rep.id == "" {
		rep.id = rep.addr
	}
	rep.maxStr = info.MaxStreams
	rep.alive = !info.Draining
	return nil
}

// markDead drops a replica from serving after a transport failure. Its
// streams migrate as their next pulls fail over.
func (r *Router) markDead(rep *replica) {
	rep.mu.Lock()
	if rep.cl != nil {
		rep.cl.Close()
		rep.cl = nil
	}
	rep.alive = false
	rep.mu.Unlock()
}

// aliveFor walks the placement ring for key and returns the candidate
// replicas: alive ones in walk order, the under-threshold ones first. The
// walk embodies the placement policy — prefer the key's owner, spill past
// hot replicas, never place on the dead.
func (r *Router) aliveFor(key string) []*replica {
	order := r.ring.walk(key)
	var cool, hot []*replica
	for _, idx := range order {
		rep := r.reps[idx]
		rep.mu.Lock()
		alive, load, capacity := rep.alive, rep.streams, rep.maxStr
		rep.mu.Unlock()
		if !alive {
			continue
		}
		if capacity > 0 && float64(load) >= r.cfg.SpillThreshold*float64(capacity) {
			hot = append(hot, rep)
			continue
		}
		cool = append(cool, rep)
	}
	return append(cool, hot...)
}

// liveReplicas returns every alive replica in index order (write fan-out
// must hit them all, in a stable order).
func (r *Router) liveReplicas() []*replica {
	var out []*replica
	for _, rep := range r.reps {
		rep.mu.Lock()
		alive := rep.alive
		rep.mu.Unlock()
		if alive {
			out = append(out, rep)
		}
	}
	return out
}

// ReplicasLive reports how many replicas the router currently serves from.
func (r *Router) ReplicasLive() int { return len(r.liveReplicas()) }

// streamSeed derives the next stream's seed deterministically from the
// router's config seed and a counter — reproducible runs, no shared rng.
func (r *Router) streamSeed() uint64 {
	return mix64(r.cfg.Seed ^ mix64(r.seedCtr.Add(1)))
}

// viewWriteMu returns the per-view write-serialization lock: fan-out holds
// it across every replica, so all replicas apply the fleet's writes in one
// order and stay byte-identical.
func (r *Router) viewWriteMu(name string) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.writeMu[name]
	if !ok {
		m = &sync.Mutex{}
		r.writeMu[name] = m
	}
	return m
}

// Shutdown drains the client connections as a server does — each finishes
// the request it is serving, whole, before it closes — waits for the legs'
// pulls to wind down, and tears down the replica connections. Idempotent.
func (r *Router) Shutdown() {
	r.Engine.Shutdown()
	r.wg.Wait()
	for _, rep := range r.reps {
		rep.mu.Lock()
		if rep.cl != nil {
			rep.cl.Close()
			rep.cl = nil
		}
		rep.mu.Unlock()
	}
}
