package sampleview

// The power-cut ladder: for every instrumented crash point (post-wal-append,
// mid-page-write, pre-manifest-rename, mid-compaction) and an escalating hit
// count, one drill builds a WAL-backed view, drives a seeded write workload —
// insert batches, group commits, tombstone deletes, flushes, forced
// compactions — until the simulated power cut strikes, then reopens the view
// and checks the recovery contract:
//
//   - every acknowledged write (Commit returned nil) survives, byte-identical;
//   - every acknowledged delete stays deleted;
//   - nothing is applied twice (no duplicate Seq in a full drain);
//   - nothing phantom appears (every served record traces to the base
//     relation or a write the workload actually issued);
//   - the recovered view still serves uniform samples (the prefix oracle's
//     chi-square over rank buckets of a drained prefix).
//
// Writes that were in flight but never acknowledged may land on either side
// of the cut; the drill only requires that they appear at most once. The
// drill's one writer acknowledges each batch with one Commit, so each
// acknowledgement is one cohort and one fsync. What group commit saves over
// sync-every-write is pinned by internal/wal's TestGroupCommitAmortizesFsyncs
// and TestSequentialCommitsSyncOnceEach.

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"sampleview/internal/iosim"
	"sampleview/internal/oracle"
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
	// crashSeqBase is the first Seq the drill's writes carry.
	crashSeqBase = 1 << 40
)

// crashDrill is one point x hit run of the ladder.
type crashDrill struct {
	point     CrashPoint
	hit       int
	fired     bool   // the plan actually cut power
	cutOp     string // workload operation that observed the cut
	acked     int    // inserts acknowledged before the cut
	ackedDel  int    // deletes acknowledged before the cut
	replayed  int64  // WAL operations replayed on recovery
	recovered int    // records served by the recovered view
	uniform   oracle.Verdict
	errs      []string
}

func (d *crashDrill) failf(format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

// TestCrashLadder runs the ladder over 5,000 base records, seed 1: every
// crash point at hits 1 to 3, each point's ladder ending at the first hit
// its workload never reaches. Every point must fire at hit 1, and every
// drill must keep the recovery contract.
func TestCrashLadder(t *testing.T) {
	const nrecords, seed = 5000, 1
	base := genRecords(nrecords, seed)
	dir := t.TempDir()
	for _, p := range iosim.CrashPoints() {
		for hit := 1; hit <= crashMaxHits; hit++ {
			h := fnv.New64a()
			io.WriteString(h, p.String())
			d := runCrashDrill(dir, base, p, hit, seed+h.Sum64()+uint64(hit))
			t.Logf("%-20s hit=%d fired=%-5v cut-at=%-8s acked=%-4d acked-del=%-3d replayed=%-4d recovered=%-5d p=%.3f",
				d.point, d.hit, d.fired, d.cutOp, d.acked, d.ackedDel, d.replayed, d.recovered, d.uniform.P)
			if len(d.errs) > 0 {
				t.Errorf("%s hit %d: recovery contract violated: %s", p, hit, strings.Join(d.errs, "; "))
			}
			if !d.fired {
				if hit == 1 {
					t.Errorf("%s never fired; its drill proves nothing", p)
				}
				break // deeper hits of this point are unreachable too
			}
		}
	}
}

// runCrashDrill runs one drill: build, write until the planned cut (or the
// workload ends), reopen, verify.
func runCrashDrill(dir string, base []Record, p CrashPoint, hit int, seed uint64) crashDrill {
	d := crashDrill{point: p, hit: hit}
	path := filepath.Join(dir, fmt.Sprintf("drill-%s-%d.view", p, hit))
	opts := Options{Seed: seed, WAL: true}
	v, err := CreateFromSlice(path, base, opts)
	if err != nil {
		d.failf("create: %v", err)
		return d
	}
	v.InjectCrash(CrashPlan{Point: p, Hit: hit})

	// The model recovery is held to: the base plus acked inserts minus acked
	// deletes, with whatever was in flight at the cut free to land either way.
	m := oracle.NewModel(base)
	g := workload.NewGenerator(workload.Uniform, seed^0xc2b2ae3d27d4eb4f)
	nextSeq := uint64(crashSeqBase)
	var prev []Record

	cut := func(op string, err error) bool {
		if err == nil {
			return false
		}
		if IsCrash(err) {
			d.fired, d.cutOp = true, op
		} else {
			d.failf("%s failed without a cut: %v", op, err)
		}
		return true
	}

work:
	for batch := 0; batch < crashMaxBatches; batch++ {
		cur := make([]Record, 0, crashBatch)
		for i := 0; i < crashBatch; i++ {
			rec := g.Next()
			rec.Seq = nextSeq
			nextSeq++
			if err := v.Insert(rec); cut("insert", err) {
				break work
			}
			m.Pending(rec)
			cur = append(cur, rec)
		}
		// Every third batch tombstones the first half of the previous
		// (already acknowledged) batch.
		var dels []Record
		if batch%3 == 2 && len(prev) >= crashBatch/2 {
			dels = prev[:crashBatch/2]
		}
		for _, rec := range dels {
			if err := v.Delete(rec); cut("delete", err) {
				break work
			}
			m.Pending(rec)
		}
		if err := v.Commit(); cut("commit", err) {
			break work
		}
		m.Write(cur...)
		m.Delete(dels...)
		d.acked += len(cur)
		d.ackedDel += len(dels)
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
	if err := v.Close(); err != nil && !IsCrash(err) {
		d.failf("close: %v", err)
	}

	re, err := Open(path, opts)
	if err != nil {
		d.failf("recovery open: %v", err)
		return d
	}
	defer re.Close()
	d.replayed = re.WriteStats().WALReplayed
	verifyRecovered(&d, re, m)
	return d
}

// verifyRecovered drains the recovered view and holds it to the drill's
// model: every record served is the model's, once; every acknowledged
// record not in flight is served; the drained prefix passes the uniformity
// gate.
func verifyRecovered(d *crashDrill, re *View, m *oracle.Model) {
	s, err := re.Query(record.FullBox(1))
	if err != nil {
		d.failf("recovery query: %v", err)
		return
	}
	defer s.Close()
	ck := oracle.NewChecker(crashUniformPrefix)
	o := ck.Stream(m, record.FullBox(1))
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if IsTransient(err) {
				continue
			}
			d.failf("recovery stream: %v", err)
			return
		}
		o.Add(rec)
		d.recovered++
	}
	o.Drained()
	d.errs = append(d.errs, ck.Violations()...)
	if d.uniform = ck.Verdicts()[0]; d.uniform.Tested && d.uniform.P < oracle.Alpha {
		d.failf("recovered sample non-uniform (p=%.5f)", d.uniform.P)
	}
}

// TestRecoveryVerifierFlagsPhantom feeds verifyRecovered a clean view, one
// serving a record the drill never issued, and a model holding an
// acknowledged write the view no longer serves.
func TestRecoveryVerifierFlagsPhantom(t *testing.T) {
	base := genRecords(2000, 2)
	v, err := CreateFromSlice(filepath.Join(t.TempDir(), "v.view"), base, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	var d crashDrill
	verifyRecovered(&d, v, oracle.NewModel(base))
	if len(d.errs) > 0 || !d.uniform.Tested || d.recovered != len(base) {
		t.Fatalf("clean view: errs %v, uniformity %+v, recovered %d of %d", d.errs, d.uniform, d.recovered, len(base))
	}

	// A record the drill never issued surfaces after "recovery".
	phantom := Record{Key: 7, Amount: 7, Seq: crashSeqBase}
	if err := v.Insert(phantom); err != nil {
		t.Fatal(err)
	}
	d = crashDrill{}
	verifyRecovered(&d, v, oracle.NewModel(base))
	if len(d.errs) != 1 || !strings.Contains(d.errs[0], "phantom") {
		t.Fatalf("phantom: errs %v, want one naming seq %d", d.errs, phantom.Seq)
	}

	// An acknowledged write the view no longer serves is lost.
	d = crashDrill{}
	m := oracle.NewModel(base)
	lost := Record{Key: 8, Seq: crashSeqBase + 1}
	m.Write(phantom, lost)
	verifyRecovered(&d, v, m)
	if len(d.errs) != 1 || !strings.Contains(d.errs[0], "missing from a drained stream") {
		t.Fatalf("lost ack: errs %v", d.errs)
	}
}
