package main

// Crash mode (-crash): the deterministic kill-at-every-crash-point ladder.
//
// For every instrumented crash point (post-wal-append, mid-page-write,
// pre-manifest-rename, mid-compaction) and an escalating hit count, one
// drill builds a WAL-backed view, drives a seeded write workload — insert
// batches, group commits, tombstone deletes, flushes, forced compactions —
// until the simulated power cut strikes, then reopens the view and checks
// the recovery contract:
//
//   - every acknowledged write (Commit returned nil) survives, byte-identical;
//   - every acknowledged delete stays deleted;
//   - nothing is applied twice (no duplicate Seq in a full drain);
//   - nothing phantom appears (every served record traces to the base
//     relation or a write the workload actually issued);
//   - the recovered view still serves uniform samples (chi-square over key
//     buckets of a drained prefix).
//
// Writes that were in flight but never acknowledged may land on either side
// of the cut; the drill only requires that they appear at most once.
//
// With -out the drill table is written as a markdown report
// (results/crash-bench.md). What group commit saves over sync-every-write
// is pinned by internal/wal's TestGroupCommitAmortizesFsyncs and
// TestSyncEveryOneSyncsEachCommit.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sampleview"
	"sampleview/internal/iosim"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

const (
	// crashBatch writes per acknowledgement; crashMaxBatches bounds one
	// drill's workload (a drill whose point never fires ends there).
	crashBatch      = 8
	crashMaxBatches = 48
	// crashMaxHits is how deep the per-point hit ladder goes: hit 1 cuts at
	// the first encounter, hit 2 at the second, ...
	crashMaxHits = 3
	// crashUniformPrefix is the drained-prefix size for the post-recovery
	// uniformity check.
	crashUniformPrefix = 2000
)

// crashDrill is one point x hit run of the ladder.
type crashDrill struct {
	point     sampleview.CrashPoint
	hit       int
	fired     bool   // the plan actually cut power
	cutOp     string // workload operation that observed the cut
	acked     int    // inserts acknowledged before the cut
	ackedDel  int    // deletes acknowledged before the cut
	replayed  int64  // WAL operations replayed on recovery
	recovered int    // records served by the recovered view
	pvalue    float64
	pvalid    bool
	errs      []string
}

func (d *crashDrill) failf(format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

// runCrashMode executes the full ladder: it returns the report and whether
// every drill held.
func runCrashMode(nrecords int, seed uint64) (string, bool) {
	dir, err := os.MkdirTemp("", "svchaos-crash-*")
	if err != nil {
		return "", failed(err)
	}
	defer os.RemoveAll(dir)

	recs := genRecords(nrecords, seed)
	fmt.Printf("crash ladder: %d base records, %d crash points x up to %d hits\n",
		nrecords, len(iosim.CrashPoints()), crashMaxHits)

	var drills []crashDrill
	ok := true
	for _, p := range iosim.CrashPoints() {
		for hit := 1; hit <= crashMaxHits; hit++ {
			d := runCrashDrill(dir, recs, p, hit, seed+salt(p.String())+uint64(hit))
			verdict := "ok"
			if len(d.errs) > 0 {
				verdict = "CONTRACT VIOLATED"
				ok = false
			}
			if !d.fired {
				verdict = "not reached"
			}
			pCell := "n/a"
			if d.pvalid {
				pCell = fmt.Sprintf("%.3f", d.pvalue)
			}
			fmt.Printf("%-20s hit=%d  fired=%-5v cut-at=%-12s acked=%-4d acked-del=%-3d replayed=%-4d recovered=%-6d p=%-6s %s\n",
				d.point, d.hit, d.fired, d.cutOp, d.acked, d.ackedDel, d.replayed, d.recovered, pCell, verdict)
			printFirst("violation", d.errs)
			drills = append(drills, d)
			if !d.fired {
				break // deeper hits of this point are unreachable too
			}
		}
	}
	return buildCrashReport(nrecords, seed, drills), ok
}

// runCrashDrill runs one drill: build, write until the planned cut (or the
// workload ends), reopen, verify.
func runCrashDrill(dir string, base []record.Record, p sampleview.CrashPoint, hit int, seed uint64) crashDrill {
	d := crashDrill{point: p, hit: hit}
	path := filepath.Join(dir, fmt.Sprintf("drill-%s-%d.view", p, hit))
	opts := sampleview.Options{Seed: seed, WAL: true, WALSyncEvery: crashBatch}
	v, err := sampleview.CreateFromSlice(path, base, opts)
	if err != nil {
		d.failf("create: %v", err)
		return d
	}
	v.InjectCrash(sampleview.CrashPlan{Point: p, Hit: hit})

	// State the verifier needs: every record the view may serve (the base
	// relation and each insert it accepted), acknowledged live inserts,
	// acknowledged deletes, and everything in flight at the moment of the cut.
	known := make(map[uint64]record.Record, len(base))
	for _, r := range base {
		known[r.Seq] = r
	}
	ackedLive := make(map[uint64]record.Record)
	ackedDeleted := make(map[uint64]struct{})
	pendingDel := make(map[uint64]struct{})
	g := workload.NewGenerator(workload.Uniform, seed^0xc2b2ae3d27d4eb4f)
	nextSeq := uint64(writeSeqBase)
	var prev []record.Record

	cut := func(op string, err error) bool {
		if err == nil {
			return false
		}
		if sampleview.IsCrash(err) {
			d.fired, d.cutOp = true, op
		} else {
			d.failf("%s failed without a cut: %v", op, err)
		}
		return true
	}

work:
	for batch := 0; batch < crashMaxBatches; batch++ {
		cur := make([]record.Record, 0, crashBatch)
		for i := 0; i < crashBatch; i++ {
			rec := g.Next()
			rec.Seq = nextSeq
			nextSeq++
			if err := v.Insert(rec); cut("insert", err) {
				break work
			}
			known[rec.Seq] = rec
			cur = append(cur, rec)
		}
		// Every third batch tombstones the first half of the previous
		// (already acknowledged) batch.
		if batch%3 == 2 && len(prev) >= crashBatch/2 {
			for _, rec := range prev[:crashBatch/2] {
				if err := v.Delete(rec); cut("delete", err) {
					break work
				}
				pendingDel[rec.Seq] = struct{}{}
			}
		}
		if err := v.Commit(); cut("commit", err) {
			break work
		}
		for _, rec := range cur {
			ackedLive[rec.Seq] = rec
		}
		for seq := range pendingDel {
			delete(ackedLive, seq)
			ackedDeleted[seq] = struct{}{}
			d.ackedDel++
		}
		d.acked += len(cur)
		pendingDel = make(map[uint64]struct{})
		prev = cur
		if batch%4 == 3 {
			if err := v.Flush(); cut("flush", err) {
				break work
			}
		}
		if batch%8 == 7 {
			if _, err := v.CompactDeltas(true); cut("compact", err) {
				break work
			}
		}
	}
	if d.fired != v.Crashed() {
		d.failf("cut bookkeeping out of sync: fired=%v Crashed=%v", d.fired, v.Crashed())
	}
	if err := v.Close(); err != nil && !sampleview.IsCrash(err) {
		d.failf("close: %v", err)
	}

	re, err := sampleview.Open(path, opts)
	if err != nil {
		d.failf("recovery open: %v", err)
		return d
	}
	defer re.Close()
	d.replayed = re.WriteStats().WALReplayed
	verifyRecovered(&d, re, known, ackedLive, ackedDeleted, pendingDel)
	return d
}

// verifyRecovered drains the recovered view and checks the contract against
// the drill's write ledger: known is every record the view may serve.
func verifyRecovered(d *crashDrill, re *sampleview.View, known, ackedLive map[uint64]record.Record,
	ackedDeleted, pendingDel map[uint64]struct{}) {
	s, err := re.Query(record.FullBox(1))
	if err != nil {
		d.failf("recovery query: %v", err)
		return
	}
	defer s.Close()
	// Anything served outside known is a phantom or a corrupt record; the
	// uniformity gate covers the drained prefix's keys (the live key
	// population is uniform over the domain by construction).
	ck := newChecker(record.FullBox(1), func(seq uint64) (record.Record, bool) {
		r, ok := known[seq]
		return r, ok
	})
	var prefix [uniformityBuckets]int64
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if sampleview.IsTransient(err) {
				continue
			}
			d.failf("recovery stream: %v", err)
			return
		}
		ck.add(rec)
		if len(ck.seen) <= crashUniformPrefix {
			prefix = ck.hist
		}
	}
	d.recovered = len(ck.seen)
	d.errs = append(d.errs, ck.bad...)

	for seq := range ackedLive {
		if _, inflight := pendingDel[seq]; inflight {
			continue // an unacknowledged delete may land on either side
		}
		if _, ok := ck.seen[seq]; !ok {
			d.failf("acked seq %d lost across the cut", seq)
		}
	}
	for seq := range ackedDeleted {
		if _, ok := ck.seen[seq]; ok {
			d.failf("acked delete of seq %d undone by recovery", seq)
		}
	}
	if p, ok := uniformity(prefix); ok {
		d.pvalue, d.pvalid = p, true
		if p < uniformityAlpha {
			d.failf("recovered sample non-uniform (p=%.5f)", p)
		}
	}
}

func buildCrashReport(nrecords int, seed uint64, drills []crashDrill) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Crash bench: deterministic power-cut ladder\n\n")
	fmt.Fprintf(&sb, "Each drill arms one crash point at one hit count, drives a seeded write "+
		"workload (insert batches of %d, group commits, tombstone deletes, flushes, forced "+
		"compactions) over a %d-record WAL-backed view until the simulated power cut strikes, "+
		"then reopens the view and verifies recovery (seed %d).\n\n", crashBatch, nrecords, seed)
	fmt.Fprintf(&sb, "Contract: every acknowledged write survives byte-identical, acknowledged "+
		"deletes stay deleted, nothing is applied twice, nothing phantom appears, and the "+
		"recovered view still serves uniform samples (chi-square over %d key buckets, alpha %g).\n\n",
		uniformityBuckets, uniformityAlpha)
	fmt.Fprintf(&sb, "| crash point | hit | fired | cut at | acked | acked deletes | replayed | recovered | p | verdict |\n")
	fmt.Fprintf(&sb, "|---|---|---|---|---|---|---|---|---|---|\n")
	for _, d := range drills {
		verdict := "ok"
		if len(d.errs) > 0 {
			verdict = "VIOLATED: " + d.errs[0]
		} else if !d.fired {
			verdict = "not reached"
		}
		pCell := "n/a"
		if d.pvalid {
			pCell = fmt.Sprintf("%.3f", d.pvalue)
		}
		cutOp := d.cutOp
		if cutOp == "" {
			cutOp = "-"
		}
		fmt.Fprintf(&sb, "| %s | %d | %v | %s | %d | %d | %d | %d | %s | %s |\n",
			d.point, d.hit, d.fired, cutOp, d.acked, d.ackedDel, d.replayed, d.recovered, pCell, verdict)
	}
	return sb.String()
}
