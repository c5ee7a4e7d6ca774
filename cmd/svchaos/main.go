// Command svchaos is the end-to-end drill harness. By default it builds a
// sample view, serves it on a loopback listener, and replays a closed-loop
// reader workload under escalating storage-fault profiles, verifying on the
// fly that the failure-handling contract holds at every level:
//
//   - transient profiles (flaky-disk, flaky-deep) are invisible to
//     clients — zero client-visible errors, every delivered record valid;
//   - corruption and dead pages (bitrot, bad-sector, hell) surface only
//     as typed degraded errors, never as garbage records, duplicates or
//     dropped connections;
//   - delivered samples stay uniform (the prefix oracle's chi-square over
//     rank buckets of the predicate's matches) on every operation that lost
//     no leaf.
//
// Usage:
//
//	svchaos -records 100000 -clients 8 -ops 6 -out results/chaos-bench.md
//	svchaos -profiles flaky-disk,hell -seed 7
//	svchaos -shards 4
//	svchaos -ingest 2 -profiles flaky-disk
//	svchaos -fleet -records 60000 -out results/fleet-bench.md
//	svchaos -connect 127.0.0.1:7070 -view sale -clients 32 -ingest 8
//	svchaos -connect 127.0.0.1:7070 -view sale -clients 32 -tenants 8
//
// With -connect the same reader and writer fleet runs against an external
// sv serve or sv route, in the view's own dimensionality, and ends by dumping
// its counters. Without a source relation the readers check the predicate
// and duplicates only; -tenants N spreads them across N tenant identities.
//
// With -fleet the fault ladder is replaced by the replicated-serving kill
// drill: for each fleet size K in {2, 4} a router fronts K byte-identical
// replicas and the replica hosting a part-drained seeded stream is killed
// outright — the router must migrate the stream live, with the resumed
// sequence byte-identical to an uninterrupted local stream and the
// post-migration suffix still chi-square-uniform (see fleet.go).
//
// With -shards K the view is partitioned across K simulated disks and the
// ladder runs against the merged K-way stream; a final shard-kill phase
// then kills one shard outright and verifies the blast radius: typed
// degraded errors only, zero records from the dead shard, every matching
// record of the surviving shards still delivered.
//
// With -ingest W each profile additionally runs W writer connections that
// append fresh records, tombstone part of what they appended, and flush —
// so memview flushes and delta compactions race the faulted reads. Every
// record a reader receives must still be byte-identical to a record some
// writer (or the original build) produced, still in-predicate and still
// duplicate-free, and on transient-only profiles the writers themselves
// must see zero hard errors.
//
// The run prints a per-profile summary and, with -out, writes a markdown
// report (ladder, -fleet); the exit status is non-zero if any
// contract above was violated.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"sampleview"
	"sampleview/internal/iosim"
	"sampleview/internal/oracle"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/workload"
)

// profileResult aggregates one profile's run.
type profileResult struct {
	profile   string
	elapsed   time.Duration
	records   int64
	ops       int
	retries   int64 // client-side transparent retries
	transient int64 // CodeTransient frames the server sent
	degFrames int64 // CodeDegraded frames the server sent
	degEvents int64 // degraded errors clients observed
	faults    sampleview.FaultCounters
	pvalues   []float64
	pFailures int
	hardErrs  []string // client-visible non-degraded failures
	badRecs   []string // garbage / duplicate / out-of-predicate records
	// ingest-phase activity (zero without -ingest).
	appended  int64
	wdeleted  int64
	flushes   int64
	writeErrs []string // writer-visible hard failures
}

// nextWriteSeq hands each writer batch a fresh disjoint Seq block, across
// profiles too, so a deleted Seq is never reinserted. A batch is pending in
// the ladder's model before it is sent: a reader can race the ack only.
var nextWriteSeq atomic.Uint64

// writeSeqBase is the first Seq handed to writers; anything at or above it
// entered through the wire rather than the original build.
const writeSeqBase = 1 << 40

func main() {
	var (
		nrecords = flag.Int("records", 100_000, "records in the generated view")
		clients  = flag.Int("clients", 8, "concurrent reader connections (per profile)")
		ops      = flag.Int("ops", 6, "queries per reader")
		samples  = flag.Int("samples", 2000, "sample budget per query")
		batch    = flag.Int("batch", 256, "records per batch pull")
		seed     = flag.Uint64("seed", 1, "workload and fault-schedule seed")
		profs    = flag.String("profiles", "all", "comma-separated fault profiles, or \"all\" for the escalating ladder")
		shards   = flag.Int("shards", 1, "partition the view across this many simulated disks (>1 adds a shard-kill phase)")
		ingest   = flag.Int("ingest", 0, "writer connections appending/deleting/flushing while the readers run")
		fleetOn  = flag.Bool("fleet", false, "run the replicated-serving fleet drill instead of the fault-profile ladder")
		connect  = flag.String("connect", "", "drive the readers and writers against this sv serve or sv route address instead")
		view     = flag.String("view", "sale", "served view name")
		tenants  = flag.Int("tenants", 0, "spread readers round-robin across this many tenant identities (0 = untenanted)")
		out      = flag.String("out", "", "write the markdown report to this file")
	)
	flag.Parse()
	nextWriteSeq.Store(writeSeqBase)

	t := traffic{addr: *connect, view: *view, dims: 1, tenants: *tenants, clients: *clients, ops: *ops,
		samples: *samples, batch: *batch, ingest: *ingest, seed: *seed, writeSeed: *seed}
	var report string
	var ok bool
	switch {
	case *fleetOn:
		report, ok = runFleetMode(*nrecords, *seed)
	case *connect != "":
		ok = runConnect(t)
	default:
		report, ok = runLadder(t, *nrecords, *profs, *shards)
	}
	if err := writeOut(*out, report); err != nil {
		ok = failed(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// runLadder builds the chaos view and drives the traffic under each fault
// profile in turn, then, on a sharded view, kills a shard.
func runLadder(t traffic, nrecords int, profs string, shards int) (string, bool) {
	profiles := iosim.Profiles()
	if profs != "all" {
		profiles = strings.Split(profs, ",")
	}
	dir, err := os.MkdirTemp("", "svchaos-*")
	if err != nil {
		return "", failed(err)
	}
	defer os.RemoveAll(dir)

	recs := genRecords(nrecords, t.seed)
	t.model = oracle.NewModel(recs)
	tg, err := buildTarget(dir, recs, shards, t.seed)
	if err != nil {
		return "", failed(err)
	}
	defer tg.view.Close()
	fmt.Printf("view: %d records across %d shard(s); %d clients x %d ops x %d samples per profile\n",
		tg.view.Count(), shards, t.clients, t.ops, t.samples)

	var results []profileResult
	ok := true
	for _, name := range profiles {
		plan, err := sampleview.FaultProfile(name, t.seed)
		if err != nil {
			return "", failed(err)
		}
		res := runProfile(tg, t, name, plan)
		results = append(results, res)
		ok = printProfile(&res, t.ingest) && ok
	}

	if tg.k > 1 {
		res := runShardKill(tg, t, recs)
		results = append(results, res)
		verdict := "ok"
		if len(res.hardErrs) > 0 || len(res.badRecs) > 0 || res.degEvents == 0 || res.records == 0 {
			verdict = "CONTRACT VIOLATED"
			ok = false
		}
		fmt.Printf("%-11s %7d recs %6.1fs  degraded-events=%-4d  %s\n",
			res.profile, res.records, res.elapsed.Seconds(), res.degEvents, verdict)
		printFirst("violation", append(res.hardErrs, res.badRecs...))
	}
	return buildReport(tg.view.Count(), t, results), ok
}

// printProfile prints one run's row and its first failures, and returns
// whether the contract held.
func printProfile(res *profileResult, ingest int) bool {
	ok := contractHolds(res)
	verdict := "ok"
	if !ok {
		verdict = "CONTRACT VIOLATED"
	}
	fmt.Printf("%-11s %7d recs %6.1fs  retries=%-5d transient=%-5d degraded=%-4d corrupt=%-4d dead=%-3d uniform-fail=%d  %s\n",
		res.profile, res.records, res.elapsed.Seconds(), res.retries, res.transient,
		res.degFrames, res.faults.CorruptPages, res.faults.DeadPages, res.pFailures, verdict)
	if ingest > 0 {
		fmt.Printf("    ingest: %d appended, %d deleted, %d flushes, %d writer errors\n",
			res.appended, res.wdeleted, res.flushes, len(res.writeErrs))
		printFirst("writer error", res.writeErrs)
	}
	printFirst("hard error", res.hardErrs)
	printFirst("bad record", res.badRecs)
	return ok
}

// contractHolds checks the per-profile failure-handling contract: no
// garbage records ever; no client-visible hard errors and no uniformity
// failures unless the profile can permanently lose leaves.
func contractHolds(r *profileResult) bool {
	if len(r.badRecs) > 0 {
		return false
	}
	lossy := r.faults.DeadPages > 0 || r.faults.CorruptPages > 0 || r.degEvents > 0
	if !lossy && (len(r.hardErrs) > 0 || r.pFailures > 0 || len(r.writeErrs) > 0) {
		return false
	}
	// Even lossy profiles must fail cleanly: typed degraded errors are
	// counted in degEvents, anything else is a hard error. Writer failures
	// on lossy profiles are tolerated — a flush can legitimately hit a dead
	// page — but the reads must stay clean regardless.
	return len(r.hardErrs) == 0
}

// target is the served view, unsharded or K-way sharded, so the ladder
// runs identically against either.
type target struct {
	view interface {
		Count() int64
		InjectFaults(sampleview.FaultPlan)
		Stats() sampleview.IOStats
		Close() error
	}
	source server.ViewSource
	k      int
}

// buildTarget materializes the chaos view: unsharded for shards <= 1,
// partitioned across shards simulated disks otherwise.
func buildTarget(dir string, recs []record.Record, shards int, seed uint64) (*target, error) {
	if shards <= 1 {
		v, err := sampleview.CreateFromSlice(filepath.Join(dir, "chaos.view"), recs, sampleview.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		return &target{v, server.LocalSource(v), 1}, nil
	}
	v, err := sampleview.CreateSharded(filepath.Join(dir, "chaos.shards"), recs,
		sampleview.ShardedOptions{K: shards, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &target{v, server.ShardedSource(v), shards}, nil
}

// runProfile serves the view under one fault plan and drives the traffic.
func runProfile(tg *target, t traffic, name string, plan sampleview.FaultPlan) profileResult {
	before := tg.view.Stats().Faults
	tg.view.InjectFaults(plan)
	defer tg.view.InjectFaults(sampleview.FaultPlan{})

	srv := server.New(server.Config{MaxStreams: 4 * t.clients, RequestTimeout: 30 * time.Second})
	srv.AddSource(t.view, tg.source)
	addr, err := serveLoopback(srv.Serve)
	if err != nil {
		return profileResult{profile: name, hardErrs: []string{err.Error()}}
	}
	defer srv.Shutdown()

	// Readers keep identical seeds (the same query mix under every
	// profile); writers take a per-profile salt, so each profile writes
	// keys of its own rather than piling duplicates onto the last one's.
	t.addr, t.writeSeed = addr, t.seed+salt(name)
	res := t.drive()
	res.profile = name
	snap := srv.Snapshot()
	res.transient = snap.TransientErrors
	res.degFrames = snap.DegradedErrors
	after := tg.view.Stats().Faults
	res.faults = sampleview.FaultCounters{
		Transient:     after.Transient - before.Transient,
		LatencySpikes: after.LatencySpikes - before.LatencySpikes,
		Rereads:       after.Rereads - before.Rereads,
		CorruptPages:  after.CorruptPages - before.CorruptPages,
		DeadPages:     after.DeadPages - before.DeadPages,
	}
	return res
}

// runShardKill kills one shard of the served view and drains a full-box
// stream over the wire, recording the blast radius: which records arrived
// and what errors surfaced. The shard is revived afterwards.
func runShardKill(tg *target, t traffic, base []record.Record) profileResult {
	res := profileResult{profile: "shard-kill", ops: 1}
	fail := func(err error) profileResult {
		res.hardErrs = append(res.hardErrs, err.Error())
		return res
	}
	sv, dead := tg.view.(*sampleview.ShardedView), tg.k-1
	sv.KillShard(dead)
	defer sv.ReviveShard(dead)

	srv := server.New(server.Config{RequestTimeout: 30 * time.Second})
	srv.AddSource(t.view, tg.source)
	addr, err := serveLoopback(srv.Serve)
	if err != nil {
		return fail(err)
	}
	defer srv.Shutdown()

	start := time.Now()
	cl, err := server.Dial(addr)
	if err != nil {
		return fail(err)
	}
	defer cl.Close()
	rv, err := cl.OpenView(t.view)
	if err != nil {
		return fail(err)
	}
	s, err := rv.Query(record.FullBox(1))
	if err != nil {
		return fail(err)
	}
	defer s.Close()

	// Base records on the dead shard's storage must never appear, every
	// other must; written records stay pending (an unflushed one sits in the
	// dead shard's memview, which a storage kill does not touch).
	for _, r := range base {
		if sv.Route(r) == dead {
			t.model.Delete(r)
		}
	}
	ck := oracle.NewChecker()
	o := ck.Stream(t.model, record.FullBox(1))
	for {
		recs, err := s.NextBatch()
		if err == io.EOF {
			o.Drained()
			break
		}
		if err != nil {
			if server.IsDegraded(err) {
				if res.degEvents++; res.degEvents > 100_000 {
					res.hardErrs = append(res.hardErrs, "stream wedged on degraded errors")
					break
				}
				continue
			}
			res.hardErrs = append(res.hardErrs, fmt.Sprintf("next batch: %v", err))
			break
		}
		o.Add(recs...)
		res.records += int64(len(recs))
	}
	res.badRecs = append(res.badRecs, ck.Violations()...)
	res.elapsed = time.Since(start)
	snap := srv.Snapshot()
	res.transient = snap.TransientErrors
	res.degFrames = snap.DegradedErrors
	return res
}

func genRecords(n int, seed uint64) []record.Record {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			Key:    rng.Int64N(workload.KeyDomain),
			Amount: rng.Int64N(workload.KeyDomain),
			Seq:    uint64(i),
		}
	}
	return recs
}

func buildReport(count int64, t traffic, results []profileResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Chaos bench: fault injection end to end\n\n")
	fmt.Fprintf(&b, "Closed-loop workload (%d clients x %d ops x %d samples, batches of %d, seed %d) "+
		"against one served view of %d records, repeated under escalating fault profiles. "+
		"Client-side retry policy: capped exponential backoff with seeded jitter.\n\n",
		t.clients, t.ops, t.samples, t.batch, t.seed, count)
	fmt.Fprintf(&b, "| profile | records | wall | client retries | transient frames | degraded frames | corrupt pages | dead pages | reread recoveries | latency spikes | hard errors | bad records | uniformity failures | min p |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range results {
		minP := oracle.Verdict{P: slices.Min(append([]float64{1}, r.pvalues...)), Tested: len(r.pvalues) > 0}
		fmt.Fprintf(&b, "| %s | %d | %v | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %s |\n",
			r.profile, r.records, r.elapsed.Round(time.Millisecond), r.retries,
			r.transient, r.degFrames, r.faults.CorruptPages, r.faults.DeadPages,
			r.faults.Rereads, r.faults.LatencySpikes,
			len(r.hardErrs), len(r.badRecs), r.pFailures, pCell(minP))
	}
	if t.ingest > 0 {
		fmt.Fprintf(&b, "\nIngest racing each profile (writers append, tombstone and flush while the readers sample):\n\n")
		fmt.Fprintf(&b, "| profile | appended | deleted | flushes | writer errors |\n|---|---|---|---|---|\n")
		for _, r := range results {
			fmt.Fprintf(&b, "| %s | %d | %d | %d | %d |\n",
				r.profile, r.appended, r.wdeleted, r.flushes, len(r.writeErrs))
		}
	}
	fmt.Fprintf(&b, "\nContract: transient-only profiles deliver with zero client-visible errors; "+
		"lossy profiles (sticky/corrupt pages) fail only through typed degraded errors — "+
		"never silent wrong records, duplicates, or dropped connections.\n")
	return b.String()
}
