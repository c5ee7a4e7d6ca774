package lsm

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"sampleview/internal/core"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

func genRecords(n int, seed, seqBase uint64) []record.Record {
	g := workload.NewGenerator(workload.Uniform, seed)
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = g.Next()
		recs[i].Seq = seqBase + uint64(i)
	}
	return recs
}

// partSeqs drains the part's leaf stream over the full domain.
func partSeqs(t *testing.T, p *Part) map[uint64]record.Record {
	t.Helper()
	s, err := p.OpenStream(p.sim.Fork(), record.FullBox(1), nil,
		func() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) })
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, s)
}

// TestPartLifecycle walks one stored partition through everything a view
// asks of it: build, logged writes, flush, close, reopen with log replay,
// in-place rebuild, reopen again — checking the live set at every step.
func TestPartLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.sv")
	opts := PartOptions{WAL: true, WALSyncEvery: 1}
	base := genRecords(1500, 1, 0)
	p, err := BuildPart(testSim(), path, SliceSource(base), core.Params{Height: 5, Seed: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint64]bool)
	for i := range base {
		model[base[i].Seq] = true
	}
	write := func(ins []record.Record, del []record.Record) {
		t.Helper()
		for i := range ins {
			if err := p.Insert(ins[i]); err != nil {
				t.Fatal(err)
			}
			model[ins[i].Seq] = true
		}
		for i := range del {
			if err := p.Delete(del[i]); err != nil {
				t.Fatal(err)
			}
			delete(model, del[i].Seq)
		}
	}
	check := func(step string) {
		t.Helper()
		got := partSeqs(t, p)
		if len(got) != len(model) {
			t.Fatalf("%s: stream returned %d records, model has %d", step, len(got), len(model))
		}
		for seq := range got {
			if !model[seq] {
				t.Fatalf("%s: stream emitted seq %d not in the model", step, seq)
			}
		}
	}

	check("built")
	a := genRecords(200, 4, 1<<32)
	write(a, base[:50])
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	write(genRecords(120, 5, 2<<32), a[:20])
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	check("written")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	if p, err = OpenPart(testSim(), path, opts); err != nil {
		t.Fatal(err)
	}
	if got := p.WriteStats().WALReplayed; got != 140 {
		t.Fatalf("reopen replayed %d operations, want the 140 unflushed ones", got)
	}
	check("reopened")

	if err := p.Rebuild(core.Params{Height: 5, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if p.DeltaSize() != 0 || p.Main().Count() != int64(len(model)) {
		t.Fatalf("rebuilt part: %d pending, base %d, want 0/%d", p.DeltaSize(), p.Main().Count(), len(model))
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("rebuild left its staging file behind (err=%v)", err)
	}
	check("rebuilt")
	write(genRecords(30, 7, 3<<32), nil)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// The rebuild truncated the log: only the 30 writes after it replay, and
	// nothing already in the new base applies twice.
	if p, err = OpenPart(testSim(), path, opts); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.WriteStats().WALReplayed; got != 30 {
		t.Fatalf("reopen after rebuild replayed %d operations, want 30", got)
	}
	check("reopened after rebuild")
	if err := p.Main().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestPartFoldPersistsAndLeavesReceiverOpen: Fold writes a new partition to
// its own file with an empty write path, and the receiver keeps serving.
func TestPartFoldPersistsAndLeavesReceiverOpen(t *testing.T) {
	sim := testSim()
	p, err := BuildPart(sim, "", SliceSource(genRecords(800, 52, 0)), core.Params{Height: 4, Seed: 52}, PartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, rec := range genRecords(80, 53, 1<<32) {
		if err := p.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "folded.sv")
	np, err := p.Fold(testSim(), path, core.Params{Height: 4}, PartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if np.Count() != 880 || np.DeltaSize() != 0 {
		t.Fatalf("folded part Count=%d DeltaSize=%d, want 880/0", np.Count(), np.DeltaSize())
	}
	if err := np.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(partSeqs(t, p)); got != 880 {
		t.Fatalf("receiver served %d records after Fold, want 880", got)
	}
	rp, err := OpenPart(testSim(), path, PartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if rp.Main().Count() != 880 {
		t.Fatalf("reopened folded base holds %d records, want 880", rp.Main().Count())
	}
	if err := rp.Main().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStreamModes pins what OpenStream promises about its two rngs:
// over an empty write path merge is never called and a nil shuffle serves
// the base in emission order; over a non-empty one merge is called once.
func TestOpenStreamModes(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 600, 60)
	q := record.FullBox(1)
	calls := 0
	merge := func() *rand.Rand { calls++; return rand.New(rand.NewPCG(7, 7)) }

	plain, err := v.OpenStream(sim.Fork(), q, nil, merge)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := v.Main().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		got, err := plain.Next()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Next()
		if got != want {
			t.Fatalf("record %d: unshuffled leaf stream diverged from the base stream", i)
		}
	}
	shuffled, err := v.OpenStream(sim.Fork(), q, rand.New(rand.NewPCG(8, 8)), merge)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, shuffled)); got != 600 {
		t.Fatalf("shuffled leaf stream returned %d records, want 600", got)
	}
	if calls != 0 {
		t.Fatalf("merge rng drawn %d times over an empty write path", calls)
	}
	ingest(t, v, 40, 61, 1<<32)
	merged, err := v.OpenStream(sim.Fork(), q, nil, merge)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, merged)); got != 640 || calls != 1 {
		t.Fatalf("merged leaf stream returned %d records with %d merge draws, want 640/1", got, calls)
	}
}

// TestQueryValidation: a query needs a random source and a predicate of the
// tree's dimensionality.
func TestQueryValidation(t *testing.T) {
	v := buildView(t, testSim(), 100, 14)
	if _, err := v.Query(record.FullBox(1), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := v.Query(record.FullBox(2), rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestDeltaOnlyView: a view whose base tree is empty serves entirely from
// the write path.
func TestDeltaOnlyView(t *testing.T) {
	sim := testSim()
	empty := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	tree, err := core.Create(pagefile.NewMem(sim), empty, core.Params{Height: 3})
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(sim, "")
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(tree, store)
	recs := ingest(t, v, 120, 50, 1<<32)
	if got := len(drain(t, mustQuery(t, v, record.FullBox(1), 51))); got != 120 {
		t.Fatalf("delta-only stream returned %d of 120", got)
	}
	// With nothing in the base to estimate, the count is exact: tombstones
	// that cancel level inserts must not be charged to the base as well.
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:10] {
		if err := v.Delete(rec); err != nil {
			t.Fatal(err)
		}
	}
	ingest(t, v, 30, 52, 2<<32)
	if got := len(drain(t, mustQuery(t, v, record.FullBox(1), 53))); got != 140 {
		t.Fatalf("delta-only stream returned %d of 140", got)
	}
	if est, err := v.EstimateCount(record.FullBox(1)); err != nil || est != 140 {
		t.Fatalf("EstimateCount = %v, %v; want exactly 140", est, err)
	}
}
