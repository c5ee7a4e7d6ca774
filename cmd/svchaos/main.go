// Command svchaos is the end-to-end chaos harness: it builds a sample
// view, serves it on a loopback listener, and replays the svload-style
// closed-loop workload under escalating storage-fault profiles, verifying
// on the fly that the failure-handling contract holds at every level:
//
//   - transient profiles (flaky-disk, flaky-deep) are invisible to
//     clients — zero client-visible errors, every delivered record valid;
//   - corruption and dead pages (bitrot, bad-sector, hell) surface only
//     as typed degraded errors, never as garbage records, duplicates or
//     dropped connections;
//   - delivered samples stay uniform (chi-square over query-range key
//     buckets) whenever no leaf was lost.
//
// Usage:
//
//	svchaos -records 100000 -clients 8 -ops 6 -out results/chaos-bench.md
//	svchaos -profiles flaky-disk,hell -seed 7
//	svchaos -shards 4
//	svchaos -ingest 2 -profiles flaky-disk
//	svchaos -crash -records 20000 -out results/crash-bench.md
//	svchaos -fleet -records 60000 -out results/fleet-bench.md
//
// With -fleet the fault ladder is replaced by the replicated-serving kill
// drill: for each fleet size K in {2, 4} a router fronts K byte-identical
// replicas and the replica hosting a part-drained seeded stream is killed
// outright — the router must migrate the stream live, with the resumed
// sequence byte-identical to an uninterrupted local stream and the
// post-migration suffix still chi-square-uniform (see fleet.go).
//
// With -crash the fault-profile ladder is replaced by the deterministic
// power-cut ladder: every instrumented crash point is armed at escalating
// hit counts against a WAL-backed view under a seeded write workload, the
// view is reopened after each cut, and recovery is verified — no
// acknowledged write lost, no double-apply, samples still uniform — followed
// by a group-commit vs sync-every-write durability-cost comparison (see
// crash.go).
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
// report. The exit status is non-zero if any contract above was violated.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sampleview"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/stats"
	"sampleview/internal/workload"
)

// selectivities is the paper's evaluation mix, cycled per operation.
var selectivities = []float64{0.0025, 0.025, 0.25}

// uniformityBuckets and minUniformitySample size the per-query chi-square
// test: at least ~10 expected records per bucket.
const (
	uniformityBuckets    = 16
	minUniformitySample  = 160
	uniformityAlpha      = 1e-3
	admissionRetryBudget = 50
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

// writtenSet tracks records added through the wire during the run, so the
// readers' byte-identity check covers them: anything served must match the
// original build or a writer's append exactly. Records are registered
// before the append is sent — a reader can race the ack, never the source
// of truth. The set persists across profiles (appends from an earlier
// profile keep getting served in later ones), as does nextWriteSeq, which
// hands each writer batch a fresh disjoint Seq block so a deleted Seq is
// never reinserted.
var (
	writtenSet   sync.Map // Seq → record.Record
	nextWriteSeq atomic.Uint64
)

// writeSeqBase is the first Seq handed to writers; anything at or above it
// entered through the wire rather than the original build.
const writeSeqBase = 1 << 40

// lookupSource resolves a served Seq against the original relation and the
// written set.
func lookupSource(bySeq map[uint64]record.Record, seq uint64) (record.Record, bool) {
	if src, ok := bySeq[seq]; ok {
		return src, true
	}
	if v, ok := writtenSet.Load(seq); ok {
		return v.(record.Record), true
	}
	return record.Record{}, false
}

func main() {
	var (
		nrecords = flag.Int("records", 100_000, "records in the generated view")
		clients  = flag.Int("clients", 8, "concurrent client connections per profile")
		ops      = flag.Int("ops", 6, "queries per client")
		samples  = flag.Int("samples", 2000, "sample budget per query")
		batch    = flag.Int("batch", 256, "records per batch pull")
		seed     = flag.Uint64("seed", 1, "workload and fault-schedule seed")
		profs    = flag.String("profiles", "all", "comma-separated fault profiles, or \"all\" for the escalating ladder")
		shards   = flag.Int("shards", 1, "partition the view across this many simulated disks (>1 adds a shard-kill phase)")
		ingest   = flag.Int("ingest", 0, "writer connections appending/deleting/flushing under each profile")
		crash    = flag.Bool("crash", false, "run the deterministic power-cut ladder instead of the fault-profile ladder")
		fleetOn  = flag.Bool("fleet", false, "run the replicated-serving fleet drill instead of the fault-profile ladder")
		out      = flag.String("out", "", "write the markdown report to this file")
	)
	flag.Parse()
	nextWriteSeq.Store(writeSeqBase)

	if *crash {
		os.Exit(runCrashMode(*nrecords, *seed, *out))
	}
	if *fleetOn {
		os.Exit(runFleetMode(*nrecords, *seed, *out))
	}

	profiles := sampleview.FaultProfiles()
	if *profs != "all" {
		profiles = strings.Split(*profs, ",")
	}

	dir, err := os.MkdirTemp("", "svchaos-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "svchaos: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)

	recs := genRecords(*nrecords, *seed)
	bySeq := make(map[uint64]record.Record, len(recs))
	for _, r := range recs {
		bySeq[r.Seq] = r
	}
	tg, err := buildTarget(dir, recs, *shards, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svchaos: %v\n", err)
		os.Exit(1)
	}
	defer tg.close()
	fmt.Printf("view: %d records across %d shard(s); %d clients x %d ops x %d samples per profile\n",
		tg.count, *shards, *clients, *ops, *samples)

	var results []profileResult
	failed := false
	for _, name := range profiles {
		plan, err := sampleview.FaultProfile(name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svchaos: %v\n", err)
			os.Exit(2)
		}
		res := runProfile(tg, bySeq, name, plan, *clients, *ops, *samples, *batch, *ingest, *seed)
		results = append(results, res)
		verdict := "ok"
		if !contractHolds(&res) {
			verdict = "CONTRACT VIOLATED"
			failed = true
		}
		fmt.Printf("%-11s %7d recs %6.1fs  retries=%-5d transient=%-5d degraded=%-4d corrupt=%-4d dead=%-3d uniform-fail=%d  %s\n",
			name, res.records, res.elapsed.Seconds(), res.retries, res.transient,
			res.degFrames, res.faults.CorruptPages, res.faults.DeadPages, res.pFailures, verdict)
		if *ingest > 0 {
			fmt.Printf("    ingest: %d appended, %d deleted, %d flushes, %d writer errors\n",
				res.appended, res.wdeleted, res.flushes, len(res.writeErrs))
			for i, e := range res.writeErrs {
				if i == 5 {
					fmt.Printf("    ... and %d more\n", len(res.writeErrs)-5)
					break
				}
				fmt.Printf("    writer error: %s\n", e)
			}
		}
		for i, e := range res.hardErrs {
			if i == 5 {
				fmt.Printf("    ... and %d more\n", len(res.hardErrs)-5)
				break
			}
			fmt.Printf("    hard error: %s\n", e)
		}
		for i, e := range res.badRecs {
			if i == 5 {
				fmt.Printf("    ... and %d more\n", len(res.badRecs)-5)
				break
			}
			fmt.Printf("    bad record: %s\n", e)
		}
	}

	if tg.k > 1 {
		res := runShardKill(tg, bySeq, *seed)
		results = append(results, res)
		verdict := "ok"
		if !shardKillHolds(tg, &res) {
			verdict = "CONTRACT VIOLATED"
			failed = true
		}
		fmt.Printf("%-11s %7d recs %6.1fs  degraded-events=%-4d  %s\n",
			res.profile, res.records, res.elapsed.Seconds(), res.degEvents, verdict)
		for i, e := range append(res.hardErrs, res.badRecs...) {
			if i == 5 {
				break
			}
			fmt.Printf("    violation: %s\n", e)
		}
	}

	report := buildReport(tg.count, *clients, *ops, *samples, *batch, *seed, results)
	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "svchaos: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "svchaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if failed {
		os.Exit(1)
	}
}

// fnv1a hashes a profile name into a seed salt (FNV-1a, 64-bit).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
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

// target abstracts the served view so the ladder runs identically against
// an unsharded view or a K-way sharded one.
type target struct {
	source server.ViewSource
	count  int64
	k      int
	inject func(sampleview.FaultPlan)
	faults func() sampleview.FaultCounters
	close  func()
	// sharded-only hooks for the shard-kill phase.
	kill   func(int)
	revive func(int)
	route  func(record.Record) int
}

// buildTarget materializes the chaos view: unsharded for shards <= 1,
// partitioned across shards simulated disks otherwise.
func buildTarget(dir string, recs []record.Record, shards int, seed uint64) (*target, error) {
	if shards <= 1 {
		v, err := sampleview.CreateFromSlice(filepath.Join(dir, "chaos.view"), recs, sampleview.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		return &target{
			source: server.LocalSource(v),
			count:  v.Count(),
			k:      1,
			inject: v.InjectFaults,
			faults: func() sampleview.FaultCounters { return v.Stats().Faults },
			close:  func() { v.Close() },
		}, nil
	}
	v, err := sampleview.CreateSharded(filepath.Join(dir, "chaos.shards"), recs,
		sampleview.ShardedOptions{K: shards, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &target{
		source: server.ShardedSource(v),
		count:  v.Count(),
		k:      shards,
		inject: v.InjectFaults,
		faults: func() sampleview.FaultCounters { return v.Stats().Faults },
		close:  func() { v.Close() },
		kill:   v.KillShard,
		revive: v.ReviveShard,
		route:  v.Route,
	}, nil
}

// runProfile serves the view under one fault plan and drives the fleet.
func runProfile(tg *target, bySeq map[uint64]record.Record, name string,
	plan sampleview.FaultPlan, clients, ops, samples, batch, ingest int, seed uint64) profileResult {
	res := profileResult{profile: name}
	before := tg.faults()
	tg.inject(plan)
	defer tg.inject(sampleview.FaultPlan{})

	srv := server.New(server.Config{MaxStreams: 4 * clients, RequestTimeout: 30 * time.Second})
	srv.AddSource("chaos", tg.source)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.hardErrs = append(res.hardErrs, err.Error())
		return res
	}
	go srv.Serve(ln)
	defer srv.Shutdown()

	start := time.Now()
	perClient := make([]profileResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			perClient[c] = runClient(ln.Addr().String(), bySeq,
				seed+uint64(c)*1000003, ops, samples, batch)
		}(c)
	}
	stop := make(chan struct{})
	perWriter := make([]profileResult, ingest)
	var wwg sync.WaitGroup
	// Writers must NOT replay the same key sequence profile after profile:
	// the written set accumulates across the ladder, and re-appending one
	// profile's key multiset under every later profile would pile up
	// duplicate keys until the census windows of the uniformity check
	// rightly flag the relation itself as non-uniform. Readers deliberately
	// keep identical seeds (the same query mix under every profile); the
	// writer seeds take a per-profile salt.
	salt := fnv1a(name)
	for w := 0; w < ingest; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			perWriter[w] = runIngest(ln.Addr().String(), w, seed+salt+uint64(w)*6700417, stop)
		}(w)
	}
	wg.Wait()
	close(stop)
	wwg.Wait()
	res.elapsed = time.Since(start)

	for i := range perWriter {
		pw := &perWriter[i]
		res.appended += pw.appended
		res.wdeleted += pw.wdeleted
		res.flushes += pw.flushes
		res.writeErrs = append(res.writeErrs, pw.writeErrs...)
	}

	for i := range perClient {
		pc := &perClient[i]
		res.records += pc.records
		res.ops += pc.ops
		res.retries += pc.retries
		res.degEvents += pc.degEvents
		res.pvalues = append(res.pvalues, pc.pvalues...)
		res.pFailures += pc.pFailures
		res.hardErrs = append(res.hardErrs, pc.hardErrs...)
		res.badRecs = append(res.badRecs, pc.badRecs...)
	}
	snap := srv.Snapshot()
	res.transient = snap.TransientErrors
	res.degFrames = snap.DegradedErrors
	after := tg.faults()
	res.faults = sampleview.FaultCounters{
		Transient:     after.Transient - before.Transient,
		LatencySpikes: after.LatencySpikes - before.LatencySpikes,
		Rereads:       after.Rereads - before.Rereads,
		CorruptPages:  after.CorruptPages - before.CorruptPages,
		DeadPages:     after.DeadPages - before.DeadPages,
	}
	return res
}

// runIngest drives one writer connection until stop closes: append a fresh
// batch of records, tombstone the first half of every third batch, and
// flush every fifth iteration, so the write path churns — memview swaps,
// L0 flushes, compactions — while the faulted readers sample. Transient
// faults are absorbed by the client's retry policy; anything that still
// escapes is recorded as a writer error (tolerated only on lossy profiles).
func runIngest(addr string, id int, seed uint64, stop <-chan struct{}) profileResult {
	var res profileResult
	fail := func(format string, args ...any) {
		res.writeErrs = append(res.writeErrs, fmt.Sprintf("writer %d: %s", id, fmt.Sprintf(format, args...)))
	}
	cl, err := server.Dial(addr)
	if err != nil {
		fail("dial: %v", err)
		return res
	}
	defer cl.Close()
	cl.SetRetryPolicy(server.RetryPolicy{Seed: seed})
	rv, err := cl.OpenView("chaos")
	if err != nil {
		fail("open view: %v", err)
		return res
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	const batchSize = 64
	for iter := 0; ; iter++ {
		select {
		case <-stop:
			return res
		default:
		}
		// Claim a fresh Seq block and register the batch before sending it,
		// so a reader can never see an unregistered record.
		base := nextWriteSeq.Add(batchSize) - batchSize
		batch := make([]record.Record, batchSize)
		for i := range batch {
			batch[i] = record.Record{
				Key:    rng.Int64N(workload.KeyDomain),
				Amount: rng.Int64N(workload.KeyDomain),
				Seq:    base + uint64(i),
			}
			writtenSet.Store(batch[i].Seq, batch[i])
		}
		for {
			n, err := rv.Append(batch)
			if err == nil {
				res.appended += int64(n)
				break
			}
			if server.IsWriteReject(err) {
				if _, ferr := rv.Flush(); ferr != nil {
					fail("flush under backlog: %v", ferr)
					return res
				}
				res.flushes++
				continue
			}
			fail("append: %v", err)
			return res
		}
		if iter%3 == 2 {
			if n, err := rv.Delete(batch[:batchSize/2]); err != nil {
				fail("delete: %v", err)
				return res
			} else {
				res.wdeleted += int64(n)
			}
		}
		if iter%5 == 4 {
			if _, err := rv.Flush(); err != nil {
				fail("flush: %v", err)
				return res
			}
			res.flushes++
		}
	}
}

// runClient drives one connection through its operations, verifying every
// delivered record against the source relation.
func runClient(addr string, bySeq map[uint64]record.Record,
	seed uint64, ops, samples, batch int) profileResult {
	var res profileResult
	fail := func(format string, args ...any) {
		res.hardErrs = append(res.hardErrs, fmt.Sprintf(format, args...))
	}
	cl, err := server.Dial(addr)
	if err != nil {
		fail("dial: %v", err)
		return res
	}
	defer cl.Close()
	cl.SetRetryPolicy(server.RetryPolicy{Seed: seed})
	rv, err := cl.OpenView("chaos")
	if err != nil {
		fail("open view: %v", err)
		return res
	}
	qg := workload.NewQueryGen(seed)
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))

	for op := 0; op < ops; op++ {
		q := qg.Range1D(selectivities[op%len(selectivities)])
		var s *server.RemoteStream
		for attempt := 0; ; attempt++ {
			s, err = rv.Query(q)
			if err == nil {
				break
			}
			if server.IsAdmissionReject(err) && attempt < admissionRetryBudget {
				time.Sleep(time.Duration(1+rng.Int64N(4)) * time.Millisecond)
				continue
			}
			fail("op %d: open stream: %v", op, err)
			return res
		}
		s.SetBatchSize(batch)

		kr := q.Dim(0)
		width := kr.Hi - kr.Lo + 1
		hist := make([]int64, uniformityBuckets)
		seen := make(map[uint64]struct{}, samples)
		got, opDegraded := 0, 0
		for got < samples {
			recs, err := s.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				if server.IsDegraded(err) {
					res.degEvents++ // typed, clean: the stream keeps serving
					if opDegraded++; opDegraded > 1000 {
						fail("op %d: stream wedged on degraded errors", op)
						break
					}
					continue
				}
				fail("op %d: next batch: %v", op, err)
				break
			}
			for i := range recs {
				r := recs[i]
				src, ok := lookupSource(bySeq, r.Seq)
				if !ok || r != src {
					res.badRecs = append(res.badRecs,
						fmt.Sprintf("op %d: record seq %d not in the source relation (silent corruption)", op, r.Seq))
					continue
				}
				if !q.ContainsRecord(&r) {
					res.badRecs = append(res.badRecs,
						fmt.Sprintf("op %d: record seq %d outside the predicate", op, r.Seq))
				}
				if _, dup := seen[r.Seq]; dup {
					res.badRecs = append(res.badRecs,
						fmt.Sprintf("op %d: duplicate seq %d (not without-replacement)", op, r.Seq))
				}
				seen[r.Seq] = struct{}{}
				b := (r.Key - kr.Lo) * uniformityBuckets / width
				if b >= 0 && b < uniformityBuckets {
					hist[b]++
				}
			}
			got += len(recs)
		}
		// Uniformity of the delivered sample's keys over the query range.
		if got >= minUniformitySample && res.degEvents == 0 {
			if p, err := stats.ChiSquareUniformPValue(hist); err == nil {
				res.pvalues = append(res.pvalues, p)
				if p < uniformityAlpha {
					res.pFailures++
				}
			}
		}
		res.records += int64(got)
		res.ops++
		s.Close()
	}
	res.retries = cl.Retries()
	return res
}

// runShardKill kills one shard of the served view and drains a full-box
// stream over the wire, recording the blast radius: which records arrived
// and what errors surfaced. The shard is revived afterwards.
func runShardKill(tg *target, bySeq map[uint64]record.Record, seed uint64) profileResult {
	res := profileResult{profile: "shard-kill"}
	dead := tg.k - 1
	tg.kill(dead)
	defer tg.revive(dead)

	srv := server.New(server.Config{RequestTimeout: 30 * time.Second})
	srv.AddSource("chaos", tg.source)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.hardErrs = append(res.hardErrs, err.Error())
		return res
	}
	go srv.Serve(ln)
	defer srv.Shutdown()

	start := time.Now()
	cl, err := server.Dial(ln.Addr().String())
	if err != nil {
		res.hardErrs = append(res.hardErrs, err.Error())
		return res
	}
	defer cl.Close()
	rv, err := cl.OpenView("chaos")
	if err != nil {
		res.hardErrs = append(res.hardErrs, err.Error())
		return res
	}
	s, err := rv.Query(record.FullBox(1))
	if err != nil {
		res.hardErrs = append(res.hardErrs, err.Error())
		return res
	}
	defer s.Close()

	served := make(map[uint64]struct{}, len(bySeq))
	for {
		recs, err := s.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			if server.IsDegraded(err) {
				res.degEvents++
				if res.degEvents > 100_000 {
					res.hardErrs = append(res.hardErrs, "stream wedged on degraded errors")
					break
				}
				continue
			}
			res.hardErrs = append(res.hardErrs, fmt.Sprintf("next batch: %v", err))
			break
		}
		for i := range recs {
			if src, ok := lookupSource(bySeq, recs[i].Seq); !ok || recs[i] != src {
				res.badRecs = append(res.badRecs,
					fmt.Sprintf("record seq %d not in the source relation", recs[i].Seq))
				continue
			}
			// Base-build records on the dead shard live only on its dead
			// storage and must never appear. Write-path records are exempt:
			// an appended-but-unflushed record sits in the dead shard's
			// in-memory buffer, which a storage kill does not touch, so
			// serving it is the degrade-not-fail contract working (flushed
			// deltas sit on dead pages and are salvaged away).
			if recs[i].Seq < writeSeqBase && tg.route(recs[i]) == dead {
				res.badRecs = append(res.badRecs,
					fmt.Sprintf("record seq %d served from the dead shard %d", recs[i].Seq, dead))
			}
			served[recs[i].Seq] = struct{}{}
		}
		res.records += int64(len(recs))
	}
	for _, r := range bySeq {
		if tg.route(r) != dead {
			if _, ok := served[r.Seq]; !ok {
				res.badRecs = append(res.badRecs,
					fmt.Sprintf("surviving-shard record seq %d never served", r.Seq))
			}
		}
	}
	res.ops = 1
	res.elapsed = time.Since(start)
	snap := srv.Snapshot()
	res.transient = snap.TransientErrors
	res.degFrames = snap.DegradedErrors
	return res
}

// shardKillHolds checks the shard-kill contract: the dead shard degrades
// through typed errors only, and the survivors deliver everything.
func shardKillHolds(tg *target, r *profileResult) bool {
	return len(r.hardErrs) == 0 && len(r.badRecs) == 0 && r.degEvents > 0 && r.records > 0
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

func buildReport(count int64, clients, ops, samples, batch int, seed uint64, results []profileResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Chaos bench: fault injection end to end\n\n")
	fmt.Fprintf(&b, "Closed-loop workload (%d clients x %d ops x %d samples, batches of %d, seed %d) "+
		"against one served view of %d records, repeated under escalating fault profiles. "+
		"Client-side retry policy: capped exponential backoff with seeded jitter.\n\n",
		clients, ops, samples, batch, seed, count)
	fmt.Fprintf(&b, "| profile | records | wall | client retries | transient frames | degraded frames | corrupt pages | dead pages | reread recoveries | latency spikes | hard errors | bad records | uniformity failures | min p |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range results {
		minP := 1.0
		for _, p := range r.pvalues {
			if p < minP {
				minP = p
			}
		}
		pCell := fmt.Sprintf("%.3f", minP)
		if len(r.pvalues) == 0 {
			pCell = "n/a"
		}
		fmt.Fprintf(&b, "| %s | %d | %v | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %s |\n",
			r.profile, r.records, r.elapsed.Round(time.Millisecond), r.retries,
			r.transient, r.degFrames, r.faults.CorruptPages, r.faults.DeadPages,
			r.faults.Rereads, r.faults.LatencySpikes,
			len(r.hardErrs), len(r.badRecs), r.pFailures, pCell)
	}
	anyIngest := false
	for _, r := range results {
		if r.appended > 0 || len(r.writeErrs) > 0 {
			anyIngest = true
		}
	}
	if anyIngest {
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
