package core

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// fuzzFixture is a small tree shared by every FuzzRangeQuery execution:
// built once, verified once with the structural fsck, and paired with the
// in-memory record list the fuzzed queries are checked against.
var fuzzFixture struct {
	once sync.Once
	tree *Tree
	recs []record.Record
	err  error
}

func fuzzTree(t *testing.T) (*Tree, []record.Record) {
	t.Helper()
	fuzzFixture.once.Do(func() {
		sim := testSim()
		rel, err := workload.GenerateRelation(sim, 600, workload.Uniform, 0xf02)
		if err != nil {
			fuzzFixture.err = err
			return
		}
		tree, err := Create(pagefile.NewMem(sim), rel, Params{Height: 4, Seed: 0xf02})
		if err != nil {
			fuzzFixture.err = err
			return
		}
		if err := tree.Verify(); err != nil {
			fuzzFixture.err = err
			return
		}
		recs, err := workload.CollectMatching(rel, record.FullBox(1))
		if err != nil {
			fuzzFixture.err = err
			return
		}
		fuzzFixture.tree, fuzzFixture.recs = tree, recs
	})
	if fuzzFixture.err != nil {
		t.Fatal(fuzzFixture.err)
	}
	return fuzzFixture.tree, fuzzFixture.recs
}

// drainStabs drains a stream over q stab by stab on a forked clock and
// returns every stab's emitted batch and the pages charged.
func drainStabs(t *testing.T, tree *Tree, q record.Box, opts StreamOptions) ([][]record.Record, int64) {
	t.Helper()
	ck := tree.f.Sim().Fork()
	s, err := tree.WithClock(ck).QueryWithOptions(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stabs [][]record.Record
	for {
		batch, err := s.NextBatch()
		if err == io.EOF {
			return stabs, ck.Counters().Reads()
		}
		if err != nil {
			t.Fatal(err)
		}
		stabs = append(stabs, batch)
	}
}

// checkSkipMatchesRead drains q with the occupancy skip and with every leaf
// read. The skipping stream must emit the same batch on every stab, charge no
// more pages, and charge the same pages when q covers the data bounds (every
// section that holds a record then holds a match). It returns the pages each
// stream charged and the records, in emission order.
func checkSkipMatchesRead(t *testing.T, tree *Tree, q record.Box) (skipped, read int64, recs []record.Record) {
	t.Helper()
	want, read := drainStabs(t, tree, q, StreamOptions{ReadEveryLeaf: true})
	got, skipped := drainStabs(t, tree, q, StreamOptions{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query %v: the skipping stream's stabs differ from the published read's", q)
	}
	if skipped > read || (q.ContainsBox(tree.DataBounds()) && skipped != read) {
		t.Fatalf("query %v: skipping charged %d pages, reading every leaf %d", q, skipped, read)
	}
	for _, b := range got {
		recs = append(recs, b...)
	}
	return skipped, read, recs
}

// FuzzRangeQuery drains a full sample stream for an arbitrary range
// predicate over a tiny Verify-checked tree and asserts the results are
// consistent with the structure the fsck validated: every emitted record
// matches the predicate, no record is emitted twice (sampling is without
// replacement), the exhausted stream has returned exactly the brute-force
// matching set, and skipping leaves by occupancy bits changed nothing but
// the pages charged (checkSkipMatchesRead).
func FuzzRangeQuery(f *testing.F) {
	f.Add(int64(0), int64(workload.KeyDomain))
	f.Add(int64(5), int64(5))
	f.Add(int64(-10), int64(-1))
	f.Add(int64(workload.KeyDomain/4), int64(workload.KeyDomain/2))
	f.Add(int64(1)<<62, int64(3))
	f.Fuzz(func(t *testing.T, lo, hi int64) {
		if lo > hi {
			lo, hi = hi, lo
		}
		tree, recs := fuzzTree(t)
		q := record.Box1D(lo, hi)
		_, _, got := checkSkipMatchesRead(t, tree, q)
		seen := make(map[uint64]bool)
		for _, rec := range got {
			if !q.ContainsRecord(&rec) {
				t.Fatalf("stream emitted record (seq %d, key %d) outside [%d,%d]", rec.Seq, rec.Key, lo, hi)
			}
			if seen[rec.Seq] {
				t.Fatalf("record seq %d emitted twice: sampling must be without replacement", rec.Seq)
			}
			seen[rec.Seq] = true
		}
		want := 0
		for i := range recs {
			if q.ContainsRecord(&recs[i]) {
				want++
			}
		}
		if len(seen) != want {
			t.Fatalf("exhausted stream returned %d records, brute force finds %d", len(seen), want)
		}
	})
}

// TestSkipMatchesPublishedRead runs checkSkipMatchesRead over both builders,
// one- and two-dimensional trees, and the edge predicates: empty, one stored
// key, Lo == Hi on a split key, beside the data bounds on either side, the
// data bounds and the full box, plus narrow ranges on which skipping must
// save pages.
func TestSkipMatchesPublishedRead(t *testing.T) {
	for _, p := range []Params{
		{Height: 6, Seed: 3},
		{Height: 6, Seed: 3, Parallelism: 4},
		{Height: 5, Seed: 5, Dims: 2},
		{Height: 5, Seed: 5, Dims: 2, Parallelism: 4},
	} {
		t.Run(fmt.Sprintf("dims%d-par%d", max(p.Dims, 1), max(p.Parallelism, 1)), func(t *testing.T) {
			tree, rel := buildTestTree(t, testSim(), 3000, p, p.Seed)
			recs, err := workload.CollectMatching(rel, record.FullBox(tree.dims))
			if err != nil {
				t.Fatal(err)
			}
			full, bounds := record.FullBox(tree.dims), tree.DataBounds()
			key := func(lo, hi int64) record.Box { return full.WithDim(0, record.Range{Lo: lo, Hi: hi}) }
			lo, hi := tree.dataMin[0], tree.dataMax[0]
			preds := map[string]record.Box{
				"empty":        key(1, 0),
				"one key":      key(recs[17].Key, recs[17].Key),
				"root split":   key(tree.splits[1], tree.splits[1]),
				"deep split":   key(tree.splits[tree.nLeaves-1], tree.splits[tree.nLeaves-1]),
				"below bounds": key(lo-1000, lo-1),
				"above bounds": key(hi+1, hi+1000),
				"data bounds":  bounds,
				"full box":     full,
			}
			var narrowSkipped, narrowRead int64
			for i := int64(0); i < 8; i++ {
				at := lo + (hi-lo)*i/8
				preds[fmt.Sprintf("0.25%% at %d/8", i)] = key(at, at+(hi-lo)/400)
			}
			if tree.dims == 2 {
				r := bounds.Dim(1)
				preds["narrow amount"] = full.WithDim(1, record.Range{Lo: r.Lo, Hi: r.Lo + (r.Hi-r.Lo)/400})
			}
			for name, q := range preds {
				skipped, read, got := checkSkipMatchesRead(t, tree, q)
				want := 0
				for i := range recs {
					if q.ContainsRecord(&recs[i]) {
						want++
					}
				}
				if len(got) != want {
					t.Fatalf("%s: %d records, brute force finds %d", name, len(got), want)
				}
				if name[0] == '0' {
					narrowSkipped, narrowRead = narrowSkipped+skipped, narrowRead+read
				}
			}
			if narrowSkipped >= narrowRead {
				t.Fatalf("narrow predicates charged %d pages skipping, %d reading every leaf: nothing was skipped", narrowSkipped, narrowRead)
			}
		})
	}
}
