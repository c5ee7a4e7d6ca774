package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"sampleview/internal/iosim"
	"sampleview/internal/oracle"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// twinShape is the tree a FuzzStreamTwin input asks for.
type twinShape struct {
	n          int64
	h, dims    int
	par        int
	paperPages bool // 64 KiB pages on the paper's disk model, else 4 KiB
}

// decodeTwinShape reads a tree shape out of 16 bits: its size (five sizes up
// to 8,000 records), height (0 for automatic, else 1..7), page size, dims
// and builder parallelism.
func decodeTwinShape(b uint16) twinShape {
	return twinShape{
		n:          []int64{0, 1, 600, 3000, 8000}[b%5],
		h:          int(b / 5 % 8),
		paperPages: b/40%2 == 1,
		dims:       1 + int(b/80%2),
		par:        1 + 3*int(b/160%2),
	}
}

// twinTree is a built tree with its records and every leaf's sections.
type twinTree struct {
	tree  *Tree
	recs  []record.Record
	whole [][][]record.Record
}

// twinTrees keeps the trees the fuzz inputs asked for, a few at a time.
var twinTrees struct {
	mu    sync.Mutex
	built map[twinShape]*twinTree
}

func buildTwinTree(t *testing.T, sh twinShape) *twinTree {
	t.Helper()
	twinTrees.mu.Lock()
	defer twinTrees.mu.Unlock()
	if tt := twinTrees.built[sh]; tt != nil {
		return tt
	}
	if len(twinTrees.built) >= 8 {
		clear(twinTrees.built)
	}
	sim := testSim()
	if sh.paperPages {
		sim = iosim.New(iosim.DefaultModel())
	}
	tree, rel := buildTestTree(t, sim, sh.n, Params{Height: sh.h, Dims: sh.dims, Parallelism: sh.par, Seed: uint64(sh.n)}, uint64(sh.n)+7)
	recs, err := workload.CollectMatching(rel, record.FullBox(sh.dims))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := wholeLeaves(tree)
	if err != nil {
		t.Fatal(err)
	}
	tt := &twinTree{tree, recs, whole}
	if twinTrees.built == nil {
		twinTrees.built = make(map[twinShape]*twinTree)
	}
	twinTrees.built[sh] = tt
	return tt
}

// twinQuery maps lo and hi onto the tree's dimension-0 keys, from just below
// its data bounds to just above them.
func twinQuery(tree *Tree, lo, hi uint16) record.Box {
	if lo > hi {
		lo, hi = hi, lo
	}
	from, span := tree.dataMin[0]-8, tree.dataMax[0]-tree.dataMin[0]+16
	key := func(v uint16) int64 { return from + span*int64(v)/0xffff }
	if tree.count == 0 {
		key = func(v uint16) int64 { return int64(v) }
	}
	return record.FullBox(tree.dims).WithDim(0, record.Range{Lo: key(lo), Hi: key(hi)})
}

// FuzzStreamTwin drives a stream by a pull program beside its twin kept to
// its stabs, over a tree, fault plan and predicate of the input's choosing.
// The input decodes to a tree shape (decodeTwinShape), a fault profile and
// plan seed, a predicate and a program whose bytes are, by their low three
// bits, AppendNext of 1 to 32 records (0-4), Next (5), LendBatch (6) and an
// early Close of both streams (7), after which the rest of the program
// drives a second pair over a predicate of its next two bytes, on the
// scratch the first pair left. Every call must hand both streams the same
// records and the same error; what the stream is served must pass
// oracle.Checker's record checks (inside the predicate, no duplicate, no
// phantom, nothing missing from a drain that lost no leaf). Each stream may
// be charged at most 1 + 1/z times its twin plus one random read, z its own
// buy point (overBound), and at the end of a drain no more than its twin,
// meeting the same faults. While a stream weighs its pass, its listing must
// keep the fit, left and price that checkListed recomputes after every
// call, and a pass must hold at most maxKeepRecords records. The first
// predicate then runs checkSpanMatchesPrefix under the plan, on scratch the
// pairs left, which also holds its pass to the rule (weighChecked).
// (A single stream's chi-square is left to the tests that pool many: here
// it would fail one input in a thousand by chance.)
func FuzzStreamTwin(f *testing.F) {
	// Seeds: a 64 KiB 3,000-record tree of 32 one-page leaves drained by
	// batches, then closed early and reopened narrower; the same tree under
	// bad sectors and under hell; an 8,000-record tree on 4 KiB pages drained
	// over the whole box; a one-record tree; an empty tree; a 600-record
	// tree on 4 KiB pages whose first pair closes at once and whose second
	// takes the pass over another predicate, leaving its scratch to the
	// check of the first predicate (found by fuzzing a build that kept a
	// recycled heldAt; with the pass bought at its own price, seeds 0 and
	// 2 are the ones that catch that build).
	f.Add(uint16(3+5*6+40), uint16(0), uint16(0x4000), uint16(0x4800), []byte{0x18, 5, 6, 0xf8, 0, 7, 0x10, 0x12, 6, 0xf8})
	f.Add(uint16(3+5*6+40), uint16(5+7*3), uint16(0x2000), uint16(0x2600), []byte{0xf8, 0xf8, 6, 5})
	f.Add(uint16(3+5*6+40+160), uint16(6+7*1), uint16(0x8000), uint16(0x8900), []byte{0x38, 7, 0x70, 0x74, 0xf8})
	f.Add(uint16(4+80), uint16(1+7*2), uint16(0), uint16(0xffff), []byte{0xf8, 6, 0xf8})
	f.Add(uint16(4+5*7), uint16(0), uint16(0x1000), uint16(0xf000), []byte{0xf8, 7, 0x01, 0x02})
	f.Add(uint16(1), uint16(4), uint16(0), uint16(0xffff), []byte{5, 5, 6})
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0xffff), []byte{0, 7, 5})
	f.Add(uint16(2+5*7), uint16(7*9), uint16(0x2000), uint16(0x2600), []byte("7070"))
	f.Fuzz(func(t *testing.T, shape, faults, lo, hi uint16, prog []byte) {
		tt := buildTwinTree(t, decodeTwinShape(shape))
		tree := tt.tree
		profiles := iosim.Profiles()
		plan, err := iosim.ProfilePlan(profiles[int(faults)%len(profiles)], uint64(faults)/uint64(len(profiles)))
		if err != nil {
			t.Fatal(err)
		}
		q := twinQuery(tree, lo, hi)
		c := oracle.NewChecker()
		model := oracle.NewModel(tt.recs)
		tree.f.Sim().SetFaultPlan(plan)
		defer tree.f.Sim().SetFaultPlan(iosim.FaultPlan{})
		if rest := driveTwins(t, tree, q, prog, c.Stream(model, q)); len(rest) >= 2 {
			q2 := twinQuery(tree, uint16(rest[0])<<8, uint16(rest[1])<<8|0xff)
			driveTwins(t, tree, q2, rest[2:], c.Stream(model, q2))
		}
		if bad := c.Violations(); len(bad) > 0 {
			t.Fatalf("%d oracle violations: %v", len(bad), bad[:min(len(bad), 5)])
		}
		checkSpanMatchesPrefix(t, tree, tt.whole, q, plan)
	})
}

// driveTwins runs prog on a stream over q and on its twin kept to its stabs,
// checking every call (FuzzStreamTwin), and closes both. It returns the
// program after an early close, or nil once it drained both.
func driveTwins(t *testing.T, tree *Tree, q record.Box, prog []byte, o *oracle.Stream) []byte {
	t.Helper()
	sim := tree.f.Sim()
	random := sim.Model().RandomRead
	ca, cs := sim.Fork(), sim.Fork()
	s, err := tree.WithClock(ca).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	stay, err := tree.WithClock(cs).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	stay.weighed = true
	lost := false
	call := func(op string, got, want []record.Record, err, errStay error) {
		t.Helper()
		if fmt.Sprint(err) != fmt.Sprint(errStay) || !slices.Equal(got, want) {
			t.Fatalf("query %v %s: the stream drew %d records (%v), kept to its stabs %d (%v)", q, op, len(got), err, len(want), errStay)
		}
		var de *DegradedError
		lost = lost || errors.As(err, &de)
		o.Add(got...)
		if overBound(s, ca.Now(), cs.Now(), random) {
			t.Fatalf("query %v %s: the stream was charged %v, its stabs %v: over 1 + 1/%.3f times theirs plus a random read", q, op, ca.Now(), cs.Now(), s.z)
		}
		if !s.weighed && len(s.listed) != 0 {
			checkListed(t, s)
		}
	}
	finish := func() {
		if len(s.held) > maxKeepRecords {
			t.Fatalf("query %v: the pass held %d records, over maxKeepRecords", q, len(s.held))
		}
		if ca.FaultCounters() != cs.FaultCounters() {
			t.Fatalf("query %v: the stream met faults %+v, its stabs %+v", q, ca.FaultCounters(), cs.FaultCounters())
		}
		s.Close()
		stay.Close()
	}
	for i, b := range prog {
		var got, want []record.Record
		var err, errStay error
		switch b % 8 {
		case 5:
			var r, w record.Record
			if r, err = s.Next(); err == nil {
				got = []record.Record{r}
			}
			if w, errStay = stay.Next(); errStay == nil {
				want = []record.Record{w}
			}
		case 6:
			got, err = s.LendBatch()
			want, errStay = stay.LendBatch()
		case 7:
			finish()
			return prog[i+1:]
		default:
			n := int(b>>3) + 1
			got, err = s.AppendNext(nil, n)
			want, errStay = stay.AppendNext(nil, n)
		}
		call(fmt.Sprintf("op %d (%#x)", i, b), got, want, err, errStay)
	}
	for calls := 0; ; calls++ {
		if calls > 100_000 {
			t.Fatalf("query %v: stream stuck in errors", q)
		}
		got, err := s.AppendNext(nil, 64)
		want, errStay := stay.AppendNext(nil, 64)
		call("drain", got, want, err, errStay)
		if err == nil && len(got) < 64 {
			break
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("query %v: a drained stream's Next returned %v, not EOF", q, err)
	}
	if !lost {
		o.Drained()
	}
	if ca.Now() > cs.Now() {
		t.Fatalf("query %v: a drain was charged %v, its stabs %v", q, ca.Now(), cs.Now())
	}
	finish()
	return nil
}
