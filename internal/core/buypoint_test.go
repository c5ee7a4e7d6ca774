package core

import (
	"io"
	"math"
	"slices"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// containedCount counts, record by record, the records of tree that lie in
// a region q contains: a record counts if its root-to-leaf path (the splits
// it goes down by) passes a node whose region lies inside q. This is the
// brute-force twin of the exact lower bound computeRequired keeps (inside).
func containedCount(t *testing.T, tree *Tree, q record.Box) (inside, matches int64) {
	t.Helper()
	contained := make([]bool, 2*tree.nLeaves)
	for idx := int64(1); idx < 2*tree.nLeaves; idx++ {
		contained[idx] = q.ContainsBox(tree.nodeBox(idx))
	}
	v := tree.WithClock(tree.f.Sim().Fork())
	for leaf := range tree.nLeaves {
		secs, err := v.readLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range secs {
			for _, rec := range sec {
				if q.ContainsRecord(&rec) {
					matches++
				}
				idx := int64(1)
				for level := 1; !contained[idx] && level < tree.h; level++ {
					idx = 2 * idx
					if rec.Coord(tree.splitDim(level)) > tree.splits[idx/2] {
						idx++
					}
				}
				if contained[idx] {
					inside++
				}
			}
		}
	}
	return inside, matches
}

// TestListingGuard holds the listing to its guard on the seeded 200k-record
// view. For every predicate, inside must equal the brute-force count of the
// records in the query's contained regions (containedCount) and never
// exceed its matches. Each stream is drained stab by stab, and at the stab
// that lists, no more than maxKeepRecords of the records inside may be
// unread: 2.5% and 25% drains never list while the bound is over it (a
// pass could not hold them), and weighDue fails the drain that waits past
// both of the listing's conditions. Every 0.25% drain still lists and buys
// the pass.
//
// Without the guard, listing at half the scan cost whatever the predicate
// holds, the first 25% drain lists with 41,042 records inside unread.
func TestListingGuard(t *testing.T) {
	tree, _ := seededView(t)
	sim := tree.f.Sim()
	qg := workload.NewQueryGen(58)
	for _, c := range []struct {
		sel    float64
		drains int
	}{{0.0025, 12}, {0.025, 6}, {0.25, 3}} {
		lists, passes := 0, 0
		for range c.drains {
			q := qg.Range1D(c.sel)
			inside, matches := containedCount(t, tree, q)
			s, err := tree.WithClock(sim.Fork()).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if s.inside != inside || inside > matches {
				t.Fatalf("%v: inside %d, the contained regions hold %d of %d matches", q, s.inside, inside, matches)
			}
			for {
				weighDue(t, s)
				listed := len(s.listed) != 0
				if _, err := s.NextLeaf(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				if !listed && len(s.listed) != 0 {
					lists++
					if unread := inside - s.emitted - int64(s.buffered); unread > maxKeepRecords {
						t.Fatalf("%v: listed with %d records inside unread, over maxKeepRecords", q, unread)
					}
				}
			}
			if s.passed {
				passes++
			}
			t.Logf("%v: z %.3f, %d inside of %d matches, listed %v, passed %v", q, s.z, inside, matches, len(s.listed) != 0, s.passed)
			s.Close()
		}
		if c.sel == 0.0025 && (lists != c.drains || passes != c.drains) {
			t.Fatalf("%g: %d of %d drains listed and %d took the pass", c.sel, lists, c.drains, passes)
		}
	}
}

// TestBuyPointDraw: over 10,000 seeded predicates of the seeded view, each
// stream's buy point z has mean 1/(e−1) within four standard errors, and
// its empirical distribution lies within the Kolmogorov–Smirnov bound
// 1.95/√n (α = 0.001) of the target's, F(z) = (e^z − 1)/(e − 1). A
// predicate reopened on the same tree, or on a clocked view of it, draws
// the same z.
func TestBuyPointDraw(t *testing.T) {
	tree, _ := seededView(t)
	qg := workload.NewQueryGen(58)
	sels := []float64{0.0025, 0.025, 0.25, 1e-6, 0.5}
	const n = 10_000
	zs := make([]float64, n)
	for i := range zs {
		q := qg.Range1D(sels[i%len(sels)])
		zs[i] = tree.drawZ(q)
		if i%500 == 0 {
			a, err := tree.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tree.WithClock(tree.f.Sim().Fork()).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if a.z != zs[i] || b.z != zs[i] {
				t.Fatalf("%v: drew z %v, reopened %v and %v", q, zs[i], a.z, b.z)
			}
			a.Close()
			b.Close()
		}
	}
	mean := 0.0
	for _, z := range zs {
		if z < 0 || z >= 1 {
			t.Fatalf("z %v outside [0, 1)", z)
		}
		mean += z / n
	}
	want := 1 / (math.E - 1)
	sd := math.Sqrt((math.E-2)/(math.E-1) - want*want)
	if math.Abs(mean-want) > 4*sd/math.Sqrt(n) {
		t.Fatalf("mean z %.4f, want %.4f within %.4f", mean, want, 4*sd/math.Sqrt(n))
	}
	slices.Sort(zs)
	d := 0.0
	for i, z := range zs {
		f := math.Expm1(z) / (math.E - 1)
		d = max(d, math.Abs(float64(i+1)/n-f), math.Abs(f-float64(i)/n))
	}
	if bound := 1.95 / math.Sqrt(n); d > bound {
		t.Fatalf("Kolmogorov–Smirnov distance %.4f over %.4f", d, bound)
	}
	t.Logf("mean z %.4f (want %.4f), KS distance %.4f", mean, want, d)
}

// TestStabCostExplainsReadEveryLeaf puts the route replay weigh guards its
// purchase with to work on streams that never weigh one: for every fault-free
// ReadEveryLeaf drain of 0.25%, 2.5% and 25% predicates on the seeded view,
// stabCost at open, over every leaf, plus the seek of the first read (the
// replay charges none: the head is not known) must equal what the drain is
// charged, read by read. The plan is the shuttle's route replayed on a twin
// stream: each read transfers its leaf's pages, and pays a seek unless it
// starts where the read before ended. A mismatch names the first stab where
// the plan and the stream part, and the random and sequential reads must be
// the plan's.
func TestStabCostExplainsReadEveryLeaf(t *testing.T) {
	tree, _ := seededView(t)
	sim := tree.f.Sim()
	m := sim.Model()
	seek := m.RandomRead - m.SequentialRead
	qg := workload.NewQueryGen(59)
	open := func(q record.Box) (*Stream, *iosim.Clock) {
		ck := sim.Fork()
		s, err := tree.WithClock(ck).QueryWithOptions(q, StreamOptions{ReadEveryLeaf: true})
		if err != nil {
			t.Fatal(err)
		}
		return s, ck
	}
	for _, sel := range []float64{0.0025, 0.025, 0.25} {
		for range 3 {
			q := qg.Range1D(sel)
			// The plan: the route, and what each of its reads is charged.
			twin, _ := open(q)
			var route []int64
			var plan []time.Duration
			var random, sequential int64
			head := int64(-1)
			for twin.remaining[1] != 0 {
				twin.shuttle()
				leaf := twin.path[tree.h] - tree.nLeaves
				lm := &tree.leaves[leaf]
				pages := tree.leafEnd(lm) - lm.firstPage
				cost := time.Duration(pages) * m.SequentialRead
				sequential += pages
				if lm.firstPage != head {
					cost += seek
					random, sequential = random+1, sequential-1
				}
				route, plan, head = append(route, leaf), append(plan, cost), tree.leafEnd(lm)
			}
			twin.Close()

			s, ck := open(q)
			s.heldAt = make([]int32, tree.nLeaves)
			for leaf := range s.heldAt {
				s.heldAt[leaf] = -1 // every leaf is one a stab will read
			}
			replay := s.stabCost()
			var planned time.Duration
			for _, c := range plan {
				planned += c
			}
			if replay+seek != planned {
				t.Fatalf("%v: stabCost at open %v plus the first read's seek %v, the route's reads %v", q, replay, seek, planned)
			}
			for i := 0; ; i++ {
				at := ck.Now()
				if _, err := s.NextLeaf(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				leaf := s.path[tree.h] - tree.nLeaves
				if got := ck.Now() - at; i >= len(route) || leaf != route[i] || got != plan[i] {
					t.Fatalf("%v: stab %d read leaf %d, charged %v; the plan has leaf %d, charged %v", q, i, leaf, got, route[min(i, len(route)-1)], plan[min(i, len(plan)-1)])
				}
			}
			if c := ck.Counters(); ck.Now() != replay+seek || c.RandomReads != random || c.SequentialReads != sequential {
				t.Fatalf("%v: the drain was charged %v in %d random and %d sequential reads; stabCost %v + a seek %v, the plan %d and %d",
					q, ck.Now(), c.RandomReads, c.SequentialReads, replay, seek, random, sequential)
			}
			t.Logf("%v: %d reads: %d random, %d sequential; stabCost %v + the first seek %v", q, len(route), random, sequential, replay, seek)
			s.Close()
		}
	}
}
