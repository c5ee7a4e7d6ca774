package lsm

import (
	"errors"
	"io"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/stats"
	"sampleview/internal/workload"
)

func testSim() *iosim.Sim {
	return iosim.New(iosim.Model{
		RandomRead:      10 * time.Millisecond,
		SequentialRead:  time.Millisecond,
		RandomWrite:     10 * time.Millisecond,
		SequentialWrite: time.Millisecond,
		PageSize:        4096,
	})
}

// buildView builds an lsm view over n uniform base records (Seqs 0..n-1)
// with an in-memory delta store on the same simulated disk.
func buildView(t *testing.T, sim *iosim.Sim, n int64, seed uint64) *View {
	t.Helper()
	return buildViewDims(t, sim, n, seed, 1)
}

// buildViewDims is buildView over a base tree indexing dims dimensions.
func buildViewDims(t *testing.T, sim *iosim.Sim, n int64, seed uint64, dims int) *View {
	t.Helper()
	rel, err := workload.GenerateRelation(sim, n, workload.Uniform, seed)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.Create(pagefile.NewMem(sim), rel, core.Params{Height: 5, Seed: seed, Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(sim, "")
	if err != nil {
		t.Fatal(err)
	}
	return NewView(tree, store)
}

// ingest inserts n generated records with Seqs offset into a distinct
// range, so tests can tell components apart.
func ingest(t *testing.T, v *View, n int, seed, seqBase uint64) []record.Record {
	t.Helper()
	g := workload.NewGenerator(workload.Uniform, seed)
	out := make([]record.Record, 0, n)
	for i := 0; i < n; i++ {
		rec := g.Next()
		rec.Seq = seqBase + uint64(i)
		if err := v.Insert(rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// drain pulls the stream dry, retrying transient faults, and fails on any
// duplicate Seq.
func drain(t *testing.T, s *Stream) map[uint64]record.Record {
	t.Helper()
	got := make(map[uint64]record.Record)
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return got
		}
		if pagefile.IsTransient(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := got[rec.Seq]; dup {
			t.Fatalf("stream repeated seq %d", rec.Seq)
		}
		got[rec.Seq] = rec
	}
}

func TestFlushedLevelsServeUnionExactly(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 1000, 1)
	l0 := ingest(t, v, 200, 2, 1<<32)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	l1 := ingest(t, v, 150, 3, 2<<32)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	mem := ingest(t, v, 100, 4, 3<<32)
	if v.Store().Levels() != 2 {
		t.Fatalf("levels = %d, want 2", v.Store().Levels())
	}
	if v.Count() != 1450 {
		t.Fatalf("count = %d, want 1450", v.Count())
	}
	got := drain(t, mustQuery(t, v, record.FullBox(1), 9))
	if len(got) != 1450 {
		t.Fatalf("stream returned %d records, want 1450", len(got))
	}
	for _, recs := range [][]record.Record{l0, l1, mem} {
		for i := range recs {
			if _, ok := got[recs[i].Seq]; !ok {
				t.Fatalf("seq %d missing from merged stream", recs[i].Seq)
			}
		}
	}
}

func mustQuery(t *testing.T, v *View, q record.Box, seed uint64) *Stream {
	t.Helper()
	s, err := v.Query(q, rand.New(rand.NewPCG(seed, seed^0x9e3779b9)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRangePredicateAcrossComponents(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 2000, 5)
	ingest(t, v, 400, 6, 1<<32)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	ingest(t, v, 300, 7, 2<<32)
	q := record.Box1D(0, workload.KeyDomain/3)
	got := drain(t, mustQuery(t, v, q, 11))
	for _, rec := range got {
		if !q.ContainsRecord(&rec) {
			t.Fatalf("record %d outside predicate", rec.Seq)
		}
	}
	// Cross-check the exact matching count against a fully drained
	// full-box stream filtered by the predicate.
	all := drain(t, mustQuery(t, v, record.FullBox(1), 12))
	want := 0
	for _, rec := range all {
		if q.ContainsRecord(&rec) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("predicate stream returned %d, want %d", len(got), want)
	}
	// The count estimate covers every component: exact over the memview and
	// the level, interpolated over the base.
	est, err := v.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if est < float64(want)*0.85 || est > float64(want)*1.15 {
		t.Fatalf("EstimateCount = %v, exact %d", est, want)
	}
}

// TestTombstoneRoundTrip is the insert→delete→never-sampled property test:
// a seeded random history of inserts, deletes, flushes and compactions is
// mirrored against a model map, and after every structural change the
// merged stream must return exactly the live set.
func TestTombstoneRoundTrip(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 500, 20)
	rng := rand.New(rand.NewPCG(21, 22))
	model := make(map[uint64]record.Record)
	base := drain(t, mustQuery(t, v, record.FullBox(1), 23))
	for seq, rec := range base {
		model[seq] = rec
	}
	live := make([]uint64, 0, len(model))
	for seq := range model {
		live = append(live, seq)
	}
	g := workload.NewGenerator(workload.Uniform, 24)
	nextSeq := uint64(1 << 32)
	deleted := make(map[uint64]bool)

	check := func(step string) {
		got := drain(t, mustQuery(t, v, record.FullBox(1), nextSeq))
		if len(got) != len(model) {
			t.Fatalf("%s: stream returned %d records, model has %d", step, len(got), len(model))
		}
		for seq := range got {
			if _, ok := model[seq]; !ok {
				t.Fatalf("%s: stream emitted seq %d not in model (deleted=%v)", step, seq, deleted[seq])
			}
		}
		for seq := range deleted {
			if _, ok := got[seq]; ok {
				t.Fatalf("%s: deleted seq %d was sampled", step, seq)
			}
		}
	}

	for round := 0; round < 6; round++ {
		// A burst of inserts and deletes.
		for i := 0; i < 120; i++ {
			if rng.IntN(3) > 0 || len(live) == 0 {
				rec := g.Next()
				rec.Seq = nextSeq
				nextSeq++
				if err := v.Insert(rec); err != nil {
					t.Fatal(err)
				}
				model[rec.Seq] = rec
				live = append(live, rec.Seq)
			} else {
				i := rng.IntN(len(live))
				seq := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := v.Delete(model[seq]); err != nil {
					t.Fatal(err)
				}
				delete(model, seq)
				deleted[seq] = true
			}
		}
		check("after ingest")
		if round%2 == 0 {
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			check("after flush")
		}
		if round == 3 {
			if _, err := v.CompactOnce(true); err != nil {
				t.Fatal(err)
			}
			check("after compaction")
		}
	}

	// Fold everything into a fresh base: the live set must survive exactly,
	// with every tombstone physically gone.
	tree, err := v.Fold(pagefile.NewMem(sim), core.Params{Height: 5, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Count() != int64(len(model)) {
		t.Fatalf("folded base holds %d records, model has %d", tree.Count(), len(model))
	}
	store, err := CreateStore(sim, "")
	if err != nil {
		t.Fatal(err)
	}
	v2 := NewView(tree, store)
	check2 := drain(t, mustQuery(t, v2, record.FullBox(1), 26))
	for seq := range deleted {
		if _, ok := check2[seq]; ok {
			t.Fatalf("deleted seq %d resurfaced after fold", seq)
		}
	}
	if len(check2) != len(model) {
		t.Fatalf("folded view returned %d records, want %d", len(check2), len(model))
	}
}

// TestUniformityAcrossComponentsUnderFlaky checks that a merged prefix
// spreads evenly over the write path's records — memview and both levels,
// bucketed across component boundaries — with transient faults striking the
// reads. Every trial builds its own view with its own Seqs: which of a
// level's records sit in its first run is fixed when the level is written
// (as the base tree's draw order is at build time), so the prefixes of many
// streams over one level are uniform over its keys but not over its records.
func TestUniformityAcrossComponentsUnderFlaky(t *testing.T) {
	plan, err := iosim.ProfilePlan("flaky-disk", 34)
	if err != nil {
		t.Fatal(err)
	}
	const buckets, prefix, perComponent = 12, 30, 200
	counts := make([]int64, buckets)
	var baseDraws, allDraws, transients int64
	for trial := uint64(0); trial < 300; trial++ {
		sim := testSim()
		v := buildView(t, sim, 600, 30)
		first := (3*trial + 1) << 32
		for c := uint64(0); c < 3; c++ {
			ingest(t, v, perComponent, 31+c, first+c<<32)
			if c < 2 {
				if err := v.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if v.Store().Levels() != 2 {
			t.Fatalf("levels = %d, want 2", v.Store().Levels())
		}
		sim.SetFaultPlan(plan)
		s := mustQuery(t, v, record.FullBox(1), 1000+trial)
		for picked := 0; picked < prefix; {
			rec, err := s.Next()
			if pagefile.IsTransient(err) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			picked++
			allDraws++
			if rec.Seq >= first {
				i := (rec.Seq-first)>>32*perComponent + (rec.Seq-first)&(1<<32-1)
				counts[i*buckets/(3*perComponent)]++
			} else {
				baseDraws++
			}
		}
		transients += sim.FaultCounters().Transient
	}
	p, err := stats.ChiSquareUniformPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("merged prefix not uniform across write components: p=%v counts=%v", p, counts)
	}
	// The base holds 600 of 1200 records; its share of every prefix must
	// match its share of the population (9000 draws, so ±0.05 is >9 sigma).
	frac := float64(baseDraws) / float64(allDraws)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("base drew %.3f of the merged prefix, want ~0.5", frac)
	}
	if transients == 0 {
		t.Fatal("flaky profile injected no transient faults; the test exercised nothing")
	}
}

// TestCompactionReducesLevelsWithoutBlockingQueries opens a stream, merges
// the ladder underneath it, and the stream must still deliver the exact
// union (it reads the superseded files, which stay open).
func TestCompactionReducesLevelsWithoutBlockingQueries(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 800, 40)
	want := int64(800)
	for i := 0; i < 4; i++ {
		ingest(t, v, 100+20*i, uint64(41+i), uint64(i+1)<<32)
		want += int64(100 + 20*i)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if v.Store().Levels() != 4 {
		t.Fatalf("levels = %d, want 4", v.Store().Levels())
	}
	s := mustQuery(t, v, record.FullBox(1), 45)
	// Pull a prefix, then compact the ladder down while the stream is open.
	for i := 0; i < 50; i++ {
		if _, err := s.Next(); err != nil && !pagefile.IsTransient(err) {
			t.Fatal(err)
		}
	}
	before := v.Store().Levels()
	for {
		ran, err := v.CompactOnce(true)
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
	}
	if after := v.Store().Levels(); after >= before {
		t.Fatalf("compaction did not reduce levels: %d -> %d", before, after)
	}
	got := drain(t, s)
	// 50 already pulled above; the rest must complete the union.
	if int64(len(got))+50 != want {
		t.Fatalf("stream over compacted view returned %d+50 records, want %d", len(got), want)
	}
	// A fresh stream over the shortened ladder agrees.
	got2 := drain(t, mustQuery(t, v, record.FullBox(1), 46))
	if int64(len(got2)) != want {
		t.Fatalf("fresh stream returned %d records, want %d", len(got2), want)
	}
}

// TestStreamDeterminism: with a fixed rng seed the merged stream's draw
// sequence is byte-identical, including while other goroutines hammer the
// view with their own streams.
func TestStreamDeterminism(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 500, 50)
	ingest(t, v, 150, 51, 1<<32)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	ingest(t, v, 100, 52, 2<<32)

	run := func() []record.Record {
		s := mustQuery(t, v, record.FullBox(1), 99)
		var out []record.Record
		for {
			rec, err := s.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Error(err)
				return out
			}
			out = append(out, rec)
		}
	}
	baseline := run()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := mustQuery(t, v, record.FullBox(1), uint64(7000+g*100+i))
				for j := 0; j < 50; j++ {
					if _, err := s.Next(); err != nil {
						break
					}
				}
			}
		}(g)
	}
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(baseline) {
			t.Fatalf("run %d returned %d records, baseline %d", trial, len(again), len(baseline))
		}
		for i := range again {
			if again[i] != baseline[i] {
				t.Fatalf("run %d diverges from baseline at position %d", trial, i)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRaceIngestStreamsCompaction drives concurrent ingest, streams and
// maintenance; under -race this is the write path's data-race stress.
func TestRaceIngestStreamsCompaction(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 400, 60)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Ingest workers: inserts with disjoint Seq ranges, deletes of their own
	// earlier inserts.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := workload.NewGenerator(workload.Uniform, uint64(61+w))
			var mine []record.Record
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := g.Next()
				rec.Seq = uint64(w+1)<<40 + uint64(i)
				if err := v.Insert(rec); err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, rec)
				if i%7 == 3 && len(mine) > 10 {
					if err := v.Delete(mine[0]); err != nil {
						t.Error(err)
						return
					}
					mine = mine[1:]
				}
			}
		}(w)
	}
	// Stream workers: open, pull a prefix checking for duplicates, close.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := v.Query(record.FullBox(1), rand.New(rand.NewPCG(uint64(80+w), uint64(i))))
				if err != nil {
					t.Error(err)
					return
				}
				seen := make(map[uint64]bool)
				for j := 0; j < 120; j++ {
					rec, err := s.Next()
					if err == io.EOF {
						break
					}
					if pagefile.IsTransient(err) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if seen[rec.Seq] {
						t.Errorf("duplicate seq %d in stream prefix", rec.Seq)
						return
					}
					seen[rec.Seq] = true
				}
			}
		}(w)
	}
	// Maintenance: flush and compact continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := v.Flush(); err != nil {
				t.Error(err)
				return
			}
			if _, err := v.CompactOnce(v.Store().Levels() > 3); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "sale.view")
	sim := testSim()
	rel, err := workload.GenerateRelation(sim, 300, workload.Uniform, 70)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.Create(pagefile.NewMem(sim), rel, core.Params{Height: 4, Seed: 70})
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(sim, prefix)
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(tree, store)
	ingest(t, v, 80, 71, 1<<32)
	v.Delete(record.Record{Seq: 5}) // tombstone a base record
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	ingest(t, v, 60, 72, 2<<32)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	want := drain(t, mustQuery(t, v, record.FullBox(1), 73))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(sim, prefix)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Levels() != 2 {
		t.Fatalf("reopened store has %d levels, want 2", store2.Levels())
	}
	v2 := NewView(tree, store2)
	got := drain(t, mustQuery(t, v2, record.FullBox(1), 74))
	if len(got) != len(want) {
		t.Fatalf("reopened view returned %d records, want %d", len(got), len(want))
	}
	if _, ok := got[5]; ok {
		t.Fatal("tombstoned base record resurfaced after reopen")
	}

	// CreateStore at the same prefix must clear the stale ladder.
	store3, err := CreateStore(sim, prefix)
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	if store3.Levels() != 0 {
		t.Fatalf("CreateStore kept %d stale levels", store3.Levels())
	}
	if _, err := OpenStore(sim, prefix); err != nil {
		t.Fatalf("OpenStore after CreateStore cleanup: %v", err)
	}
}

func TestBloomPrunesTombstoneProbes(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 400, 80)
	// Delete a handful of base records, flush so the tombstones live on
	// disk behind a bloom filter.
	for seq := uint64(0); seq < 10; seq++ {
		if err := v.Delete(record.Record{Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	before := sim.Counters().RandomReads
	got := drain(t, mustQuery(t, v, record.FullBox(1), 81))
	if len(got) != 390 {
		t.Fatalf("stream returned %d records, want 390", len(got))
	}
	probes := sim.Counters().RandomReads - before
	// 400 base draws each get vetted; without the bloom filter every draw
	// would binary-search the tombstone region (~4 reads each, >1000
	// total). With it, only the 10 true positives (and ~1% false
	// positives) pay disk probes.
	if probes > 400 {
		t.Fatalf("tombstone vetting cost %d random reads; bloom filter is not pruning", probes)
	}
}

// TestWritePathLossDegradesStream kills every page on the disk after a
// flush — before the stream opens, and again with the stream open and part
// drawn, when the loss strikes a run load instead of the open — and verifies
// the failure contract: the query still opens, exactly one typed
// WritePathLostError reports the lost delta level, base leaf losses surface
// as typed DegradedErrors, and the stream drains to EOF still serving the
// in-memory records — no raw storage error ever escapes.
func TestWritePathLossDegradesStream(t *testing.T) {
	for _, drawnFirst := range []int{0, 150} {
		sim := testSim()
		v := buildView(t, sim, 2000, 41)
		ingest(t, v, 300, 42, 1<<32)
		deletes := 0
		for _, r := range drain(t, mustQuery(t, v, record.FullBox(1), 40)) {
			if r.Seq >= 1<<32 {
				continue // only tombstone base records
			}
			if err := v.Delete(r); err != nil {
				t.Fatal(err)
			}
			if deletes++; deletes == 100 {
				break
			}
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		buffered := ingest(t, v, 200, 43, 2<<32)

		kill := func() { sim.SetFaultPlan(iosim.FaultPlan{Seed: 44, StickyRate: 1}) }
		if drawnFirst == 0 {
			kill()
		}
		s, err := v.Query(record.FullBox(1), rand.New(rand.NewPCG(45, 46)))
		if err != nil {
			t.Fatalf("query under total page loss should open degraded, got %v", err)
		}
		var got []record.Record
		lost, degraded := 0, 0
		for {
			if len(got) == drawnFirst {
				kill()
			}
			rec, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				var de *core.DegradedError
				switch {
				case IsWritePathLost(err):
					lost++
				case errors.As(err, &de):
					degraded++
				default:
					t.Fatalf("raw storage error escaped the stream: %v", err)
				}
				if lost+degraded > 10_000 {
					t.Fatal("stream wedged on typed errors")
				}
				continue
			}
			got = append(got, rec)
		}
		if lost != 1 {
			t.Errorf("%d drawn first: WritePathLostError surfaced %d times, want exactly 1", drawnFirst, lost)
		}
		if degraded == 0 {
			t.Errorf("%d drawn first: base leaf losses surfaced no DegradedError", drawnFirst)
		}
		seen := make(map[uint64]bool)
		for _, r := range got {
			if seen[r.Seq] {
				t.Fatalf("seq %d served twice", r.Seq)
			}
			seen[r.Seq] = true
		}
		for _, r := range buffered {
			if !seen[r.Seq] {
				t.Fatalf("%d drawn first: in-memory record seq %d lost from the degraded stream", drawnFirst, r.Seq)
			}
		}
	}
}
