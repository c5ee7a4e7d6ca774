package main

// Fleet mode (-fleet): the replicated-serving kill drill. For each fleet
// size K in {2, 4} it builds K byte-identical replicas of one view, fronts
// them with an in-process router, pulls a seeded stream partway, shuts the
// replica hosting it down outright, and requires the drained remainder to be
// byte-identical to an uninterrupted local stream over the same view bytes
// (no gap, no duplicate, no reorder), with the post-migration suffix still
// uniform over the predicate's matches. Throughput, batch latency and
// placement per K are svsuite's to measure (fleet-sharded).
//
// The -out report (results/fleet-bench.md in CI) is the drill's verdicts.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sampleview"
	"sampleview/internal/fleet"
	"sampleview/internal/oracle"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/workload"
)

// fleetSizes is the ladder the drill walks.
var fleetSizes = []int{2, 4}

const (
	fleetBatch      = 256
	fleetReplicaCap = 64
)

// fleetResult is one fleet size's drill.
type fleetResult struct {
	k          int
	elapsed    time.Duration
	violations []string
	killAt     int
	total      int
	migrations int64
	suffix     oracle.Verdict // the post-migration suffix's uniformity
}

// chaosFleet is one running fleet: K replica servers plus the router.
type chaosFleet struct {
	router   *fleet.Router
	addr     string
	replicas []*server.Server
	views    []*sampleview.View
}

func (cf *chaosFleet) close() {
	if cf.router != nil {
		cf.router.Shutdown()
	}
	for _, srv := range cf.replicas {
		srv.Shutdown()
	}
	for _, v := range cf.views {
		v.Close()
	}
}

// startChaosFleet builds K byte-identical replica views from recs (same
// records, same build seed — the replica-consistency invariant), serves
// each, and fronts them with a router. Hedging is off so exactly one
// replica hosts any stream, making the kill drill's victim unambiguous.
func startChaosFleet(dir string, k int, recs []record.Record, seed uint64) (*chaosFleet, error) {
	cf := &chaosFleet{}
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		path := filepath.Join(dir, fmt.Sprintf("fleet%d-replica%d.view", k, i))
		v, err := sampleview.CreateFromSlice(path, recs, sampleview.Options{Seed: seed})
		if err != nil {
			cf.close()
			return nil, err
		}
		cf.views = append(cf.views, v)

		srv := server.New(server.Config{
			MaxStreams: fleetReplicaCap,
			ReplicaID:  fmt.Sprintf("replica-%d", i),
		})
		srv.AddView("fleet", v)
		cf.replicas = append(cf.replicas, srv)
		if addrs[i], err = serveLoopback(srv.Serve); err != nil {
			cf.close()
			return nil, err
		}
	}
	router, err := fleet.New(fleet.Config{Replicas: addrs, Seed: seed})
	if err != nil {
		cf.close()
		return nil, err
	}
	if err := router.Connect(); err != nil {
		cf.close()
		return nil, err
	}
	cf.router = router
	if cf.addr, err = serveLoopback(router.Serve); err != nil {
		cf.close()
		return nil, err
	}
	return cf, nil
}

// runFleetMode is the -fleet entry point: it returns the report and
// whether every drill held.
func runFleetMode(nrecords int, seed uint64) (string, bool) {
	dir, err := os.MkdirTemp("", "svchaos-fleet-*")
	if err != nil {
		return "", failed(err)
	}
	defer os.RemoveAll(dir)

	recs := genRecords(nrecords, seed)
	fmt.Printf("fleet drill: %d records per replica; K in %v\n", nrecords, fleetSizes)

	var results []fleetResult
	ok := true
	for _, k := range fleetSizes {
		res := fleetResult{k: k}
		start := time.Now()
		if cf, err := startChaosFleet(dir, k, recs, seed); err != nil {
			res.violations = append(res.violations, err.Error())
		} else {
			runFleetKillDrill(cf, &res, recs, seed)
			cf.close()
		}
		res.elapsed = time.Since(start)
		results = append(results, res)
		verdict := "ok"
		if len(res.violations) > 0 {
			verdict = "CONTRACT VIOLATED"
			ok = false
		}
		fmt.Printf("K=%d  %6.1fs  killed at %d/%d, %d migrations, suffix p=%s (n=%d)  %s\n",
			k, res.elapsed.Seconds(), res.killAt, res.total, res.migrations, pCell(res.suffix), res.suffix.N, verdict)
		printFirst("violation", res.violations)
	}
	return buildFleetReport(nrecords, seed, results), ok
}

// runFleetKillDrill pulls a seeded stream a third of the way, kills the
// replica hosting it, and verifies the migrated remainder: byte-identical
// to the uninterrupted local reference, and the post-migration suffix
// still uniform over the predicate's matches.
func runFleetKillDrill(cf *chaosFleet, res *fleetResult, recs []record.Record, seed uint64) {
	fail := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf("drill: %s", fmt.Sprintf(format, args...)))
	}
	q := record.Box1D(0, workload.KeyDomain/2)
	drillSeed := seed ^ 0xca11ab1e

	// The determinism reference: the uninterrupted local stream over the
	// same view bytes every replica serves.
	ls, err := cf.views[0].QuerySeeded(q, drillSeed)
	if err != nil {
		fail("local reference: %v", err)
		return
	}
	want, err := ls.Sample(len(recs))
	ls.Close()
	if err != nil {
		fail("local reference: %v", err)
		return
	}
	res.total = len(want)
	res.killAt = len(want) / 3

	cl, err := server.Dial(cf.addr)
	if err != nil {
		fail("dial: %v", err)
		return
	}
	defer cl.Close()
	rv, err := cl.OpenView("fleet")
	if err != nil {
		fail("open view: %v", err)
		return
	}
	rs, err := rv.QueryAt(q, drillSeed, 0)
	if err != nil {
		fail("open seeded stream: %v", err)
		return
	}
	rs.SetBatchSize(fleetBatch)
	got := make([]record.Record, 0, len(want))
	for len(got) < res.killAt {
		rec, err := rs.Next()
		if err != nil {
			fail("pre-kill pull after %d records: %v", len(got), err)
			return
		}
		got = append(got, rec)
	}

	victim := -1
	for i, srv := range cf.replicas {
		if srv.Snapshot().OpenStreams > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		fail("no replica hosts the drill stream")
		return
	}
	cf.replicas[victim].Shutdown()

	for {
		rec, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail("post-kill pull after %d records: %v", len(got), err)
			return
		}
		got = append(got, rec)
	}

	// Byte-identity: no gap, no duplicate, no reorder anywhere in the
	// resumed sequence.
	if len(got) != len(want) {
		fail("resumed stream delivered %d records, reference has %d", len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			fail("resumed stream diverges from the reference at record %d (remote seq %d, local seq %d)",
				i, got[i].Seq, want[i].Seq)
			return
		}
	}

	// Post-migration suffix uniformity: the records served after the kill
	// must still look like a uniform sample of the predicate's matches.
	ck := oracle.NewChecker(len(got) - res.killAt)
	ck.Stream(oracle.NewModel(recs), q).Add(got[res.killAt:]...)
	res.violations = append(res.violations, ck.Violations()...)
	if res.suffix = ck.Verdicts()[0]; res.suffix.Tested && res.suffix.P < oracle.Alpha {
		fail("post-migration suffix fails uniformity: p=%g over %d records", res.suffix.P, res.suffix.N)
	}

	snap, err := cl.ServerStats()
	if err != nil {
		fail("router stats: %v", err)
		return
	}
	res.migrations = snap.Migrations
	if snap.Migrations == 0 {
		fail("router reports no migrations after the hosting replica was killed")
	}
	if snap.ReplicasLive != int64(res.k-1) {
		fail("router reports %d live replicas after the kill, want %d", snap.ReplicasLive, res.k-1)
	}
}

func buildFleetReport(nrecords int, seed uint64, results []fleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fleet drill: kill a replica under a live stream\n\n")
	fmt.Fprintf(&b, "For each fleet size K a router fronts K byte-identical replicas "+
		"(%d records each, build seed %d). The drill pulls a seeded stream a third of the way, shuts the "+
		"hosting replica down, and drains the rest through the router's live migration.\n\n", nrecords, seed)
	fmt.Fprintf(&b, "| K | wall | killed at | total records | byte-identical | migrations | suffix n | suffix chi-square p |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|\n")
	for _, r := range results {
		identical := "yes"
		if len(r.violations) > 0 {
			identical = "VIOLATED"
		}
		fmt.Fprintf(&b, "| %d | %v | %d | %d | %s | %d | %d | %s |\n",
			r.k, r.elapsed.Round(time.Millisecond), r.killAt, r.total, identical, r.migrations, r.suffix.N, pCell(r.suffix))
	}
	fmt.Fprintf(&b, "\nContract: a migrated stream's full sequence is byte-identical to an "+
		"uninterrupted local stream over the same view bytes — no gap, no duplicate, "+
		"no reorder — and the post-migration suffix passes the prefix oracle's chi-square "+
		"over rank buckets of the predicate's matches (alpha %g).\n", oracle.Alpha)
	return b.String()
}
