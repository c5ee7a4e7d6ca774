// Package fleet is the replicated multi-tenant serving tier: a router
// process that fronts N sv serve replicas, each hosting the same views over
// independent simulated disks, behind the exact wire protocol a single
// server speaks — clients need no changes to talk to a fleet.
//
// The tier leans on one property the storage layers were built to provide:
// a sample stream is a pure function of (view bytes, query, seed), so its
// entire client-visible state is a seed and a prefix position — a few bytes.
// That makes the expensive problems of replicated serving almost free here:
//
//   - Placement: open-stream requests land on a replica chosen by
//     consistent-hash over (tenant, view) with a bounded load, so a tenant's
//     streams concentrate (cache locality) until their replica holds its
//     even share of the fleet's streams, then overflow along the ring walk.
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
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sampleview/internal/server"
	"sampleview/internal/splitmix"
)

// Config tunes the router. Replicas is required; a zero elsewhere switches
// a feature off or picks its fair-share default.
type Config struct {
	// Replicas lists the replica server addresses ("host:port"). Their
	// order is the fleet's replica index space, so every router configured
	// with the same list computes the same placement ring.
	Replicas []string
	// HedgeAfter is the latency budget a primary replica gets to answer a
	// pull before the router hedges it against a second replica. 0
	// disables hedging.
	HedgeAfter time.Duration
	// TenantStreams caps open streams per tenant fleet-wide. 0 selects
	// fair share: the fleet's total stream capacity divided by the number
	// of active tenants, re-evaluated at each admission.
	TenantStreams int
	// TenantWriteRate is the refill rate of the per-tenant write token
	// bucket, which holds max(rate, server.MaxBatch) as a server's does. It
	// is enforced at the router so every replica sees exactly the batches
	// that were admitted (replica-side rate admission would let replicas
	// disagree about which batch was throttled, diverging their state). 0
	// disables write-rate admission.
	TenantWriteRate float64
	// Seed drives stream-seed derivation. Fixed seed, fixed stream seeds.
	Seed uint64
}

// replica is the router's view of one replica server: its shared metadata
// connection (estimates, writes, list-views), the quiescent connections
// parked for its next stream legs, its last known load, and whether the
// router still considers it alive.
type replica struct {
	addr string

	mu      sync.Mutex
	meta    *replicaConn   // guarded by mu; shared metadata/write conn, nil until dialed
	parked  []*replicaConn // guarded by mu; quiescent legs, oldest first, at most maxParked
	maxStr  int            // guarded by mu; the replica's stream cap
	alive   bool           // guarded by mu
	streams int            // guarded by mu; streams the router currently places here
}

// Router fronts a fleet of replicas behind the single-server wire
// protocol: it is a server.Engine over the fleet, whose Serve is the
// engine's and whose Snapshot lays the fleet fields over the standard stats
// frame. Create with New, call Connect to dial the fleet, then Serve.
type Router struct {
	*server.Engine
	cfg  Config
	ring *ring
	reps []*replica
	// What only a router counts; the engine counts the rest.
	hedgedReads, hedgeWins, migrations atomic.Int64

	mu    sync.Mutex
	views []*routerView // guarded by mu; a view's router id is its index + 1

	seedCtr atomic.Uint64
	wg      sync.WaitGroup // the hedged legs' pull goroutines

	// dial makes every connection the router opens to a replica, legs and
	// metadata alike; server.Dial unless a test substitutes its own.
	dial                   func(addr string) (*server.Client, error)
	legsDialed, legsReused atomic.Int64 // legs opened on a fresh dial / on a parked connection
}

// routerView is a view the router has resolved by name.
type routerView struct {
	name string
	dims atomic.Int32 // as last resolved
	// writeMu is held across a write's fan-out, so all replicas apply the
	// fleet's writes in one order and stay byte-identical.
	writeMu sync.Mutex
}

// New returns a router for the given fleet. Call Connect before Serve.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	r := &Router{
		cfg:  cfg,
		ring: newRing(len(cfg.Replicas)),
		dial: server.Dial,
	}
	// The engine's server-wide and per-connection stream caps, idle reaper
	// and request deadline stay off: the replicas enforce their own. The
	// write bucket is on at the router so every replica sees exactly the
	// batches that were admitted.
	r.Engine = server.NewEngine(endpoint{r}, server.Config{WriteRate: cfg.TenantWriteRate})
	for _, addr := range cfg.Replicas {
		r.reps = append(r.reps, &replica{addr: addr})
	}
	return r, nil
}

// Connect dials every replica and fetches its stream cap. At least one
// replica must answer for Connect to succeed.
func (r *Router) Connect() error {
	var firstErr error
	for _, rep := range r.reps {
		if _, err := r.probeReplica(rep); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if r.ReplicasLive() == 0 {
		return fmt.Errorf("fleet: no replica reachable: %w", firstErr)
	}
	return nil
}

// probeReplica (re)dials a replica's metadata connection and refreshes its
// stream cap, marking it alive — unless it fails to answer or reports itself
// draining, and then nothing is kept open to it.
func (r *Router) probeReplica(rep *replica) (*replicaConn, error) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.alive = false
	if rep.meta == nil {
		c, err := r.connect(rep, "")
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %s: %w", rep.addr, err)
		}
		rep.meta = c
	}
	info, err := rep.meta.cl.ReplicaInfo()
	if err == nil && info.Draining {
		err = errors.New("draining")
	}
	if err != nil {
		rep.hangUpLocked()
		return nil, fmt.Errorf("fleet: replica %s: %w", rep.addr, err)
	}
	rep.maxStr, rep.alive = info.MaxStreams, true
	return rep.meta, nil
}

// markDead drops a replica from serving after a transport failure, closing
// every connection kept to it. Its streams migrate as their next pulls fail
// over.
func (r *Router) markDead(rep *replica) {
	rep.mu.Lock()
	rep.hangUpLocked()
	rep.alive = false
	rep.mu.Unlock()
}

// aliveFor walks the placement ring for key and returns the candidate
// replicas: alive ones in walk order, first those holding fewer streams than
// both the next stream's even share, ⌈(Σ streams + 1) / alive⌉, and their own
// stream cap. The walk embodies the placement policy — prefer the key's
// owner up to its share, never place on the dead. (The textbook bounded load
// ⌈(1+ε)·mean⌉ is this at ε → 0: with any ε > 0 the ceiling lets the owner
// keep both of two streams over two replicas.)
func (r *Router) aliveFor(key string) []*replica {
	type candidate struct {
		rep            *replica
		load, capacity int
	}
	var alive []candidate
	total := 0
	for _, idx := range r.ring.walk(key) {
		rep := r.reps[idx]
		rep.mu.Lock()
		c := candidate{rep, rep.streams, rep.maxStr}
		ok := rep.alive
		rep.mu.Unlock()
		if ok {
			alive = append(alive, c)
			total += c.load
		}
	}
	var under, over []*replica
	share := (total + len(alive)) / max(len(alive), 1)
	for _, c := range alive {
		if c.load < share && (c.capacity <= 0 || c.load < c.capacity) {
			under = append(under, c.rep)
		} else {
			over = append(over, c.rep)
		}
	}
	return append(under, over...)
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
	return splitmix.Mix(r.cfg.Seed ^ splitmix.Mix(r.seedCtr.Add(1)))
}

// Shutdown drains the client connections as a server does — each finishes
// the request it is serving, whole, before it closes — waits for the legs'
// pulls to wind down, and tears down the replica connections. Idempotent.
func (r *Router) Shutdown() {
	r.Engine.Shutdown()
	r.wg.Wait()
	for _, rep := range r.reps {
		rep.mu.Lock()
		rep.hangUpLocked()
		rep.mu.Unlock()
	}
}
