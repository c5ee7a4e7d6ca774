package interleave

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sampleview/internal/core"
	"sampleview/internal/oracle"
	"sampleview/internal/record"
)

var errTransient = errors.New("transient")

// urn is a test source: a population drawn from its tail, up to n keys a
// draw. A negative key is vetted out (drawn and taken, never emitted), and
// restore, when set, is called for each one; the draws numbered in fail
// come back as errors that leave the urn as it was.
type urn struct {
	keys    []int64
	fail    map[int]bool
	draws   int
	restore func()
}

func (u *urn) draw(dst []record.Record, n int) ([]record.Record, float64, error) {
	u.draws++
	if u.fail[u.draws] {
		return dst, 0, errTransient
	}
	var took float64
	for ; n > 0 && len(u.keys) > 0; n-- {
		k := u.keys[len(u.keys)-1]
		u.keys = u.keys[:len(u.keys)-1]
		took++
		if k >= 0 {
			dst = append(dst, record.Record{Key: k, Seq: uint64(k)})
		} else if u.restore != nil {
			u.restore()
		}
	}
	return dst, took, nil
}

func mergeOf(rng *rand.Rand, rem []float64, urns []*urn) *Merger {
	srcs := make([]Source, len(urns))
	for i, u := range urns {
		srcs[i] = Source{Count: rem[i], Draw: u.draw}
	}
	return Merge(rng, srcs)
}

// shuffledUrn returns an urn of n keys base+j in random order, every vetEvery-th
// of them vetted out (none when vetEvery is 0).
func shuffledUrn(rng *rand.Rand, base int64, n, vetEvery int) *urn {
	u := &urn{}
	for j := range n {
		k := base + int64(j)
		if vetEvery > 0 && j%vetEvery == 0 {
			k = -1 - k
		}
		u.keys = append(u.keys, k)
	}
	rng.Shuffle(n, func(a, b int) { u.keys[a], u.keys[b] = u.keys[b], u.keys[a] })
	return u
}

// countingSource counts the variates a merge consumes: math/rand/v2 draws
// one Uint64 per Float64.
type countingSource struct {
	rand.Source
	n int
}

func (c *countingSource) Uint64() uint64 { c.n++; return c.Source.Uint64() }

// TestMergeDrawsEveryLiveRecordOnce drives the operator through everything
// its sources can do — vet a draw out, fail and be retried, hold more or
// fewer records than their counts say, hand a unit of mass to another source
// for each record they vet out — and checks that the merged stream is
// exactly the live records, each once, ended by a short batch.
func TestMergeDrawsEveryLiveRecordOnce(t *testing.T) {
	for seed := range uint64(40) {
		rng := rand.New(rand.NewPCG(seed, 0xd1ce))
		sizes := []int{40, 7, 25, 0, 20}
		// exact, undershot, overshot (dry early), phantom, and a restoring
		// source whose five vetted keys were charged to source 1 in advance
		rem := []float64{40, 3.5, 50, 2, 20}
		urns := make([]*urn, len(sizes))
		want := map[int64]bool{}
		for i, n := range sizes {
			urns[i] = shuffledUrn(rng, int64(i)*1000, n, 4)
			urns[i].fail = map[int]bool{1 + rng.IntN(8): true, 5 + rng.IntN(30): true}
			for _, k := range urns[i].keys {
				if k >= 0 {
					want[k] = true
				}
			}
		}
		m := mergeOf(rng, rem, urns)
		urns[4].restore = func() { m.Restore(1) }
		var out []record.Record
		for {
			before := len(out)
			var err error
			out, err = m.AppendNext(out, 5)
			if errors.Is(err, errTransient) {
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if len(out)-before < 5 {
				break
			}
		}
		seen := map[int64]bool{}
		for _, r := range out {
			if !want[r.Key] || seen[r.Key] {
				t.Fatalf("seed %d: key %d emitted although vetted out, phantom or already seen", seed, r.Key)
			}
			seen[r.Key] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("seed %d: %d of %d live records emitted", seed, len(seen), len(want))
		}
		if got, _ := m.AppendNext(nil, 1); len(got) != 0 {
			t.Fatalf("seed %d: a dry merge drew %v", seed, got)
		}
	}
}

// TestMergePrefixOracle holds merged streams to the prefix oracle, pooled
// across seeds: the planner over K equal sources, each a shuffled (uniform
// without-replacement) sequence over a disjoint population, and the
// operator over sources of unequal sizes, counted by their supersets and
// vetting a quarter of what they draw, whose prefixes must be uniform over
// the live union.
func TestMergePrefixOracle(t *testing.T) {
	t.Run("planner/four-equal-sources", func(t *testing.T) {
		checkPlanner(t, []int{25, 25, 25, 25}, 4000)
	})
	t.Run("operator/vetting", func(t *testing.T) {
		sizes := []int{40, 80, 120}
		var live []record.Record
		for i, n := range sizes {
			for j := range n {
				if j%4 != 0 {
					k := int64(i*1000 + j)
					live = append(live, record.Record{Key: k, Seq: uint64(k)})
				}
			}
		}
		m, ck := oracle.NewModel(live), oracle.NewChecker()
		for trial := range uint64(3000) {
			rng := rand.New(rand.NewPCG(trial, 0x7e57))
			urns := make([]*urn, len(sizes))
			rem := make([]float64, len(sizes))
			for i, n := range sizes {
				urns[i], rem[i] = shuffledUrn(rng, int64(i)*1000, n, 4), float64(n)
			}
			out, err := mergeOf(rng, rem, urns).AppendNext(nil, 100)
			if err != nil || len(out) != 100 {
				t.Fatalf("trial %d: %d records, %v", trial, len(out), err)
			}
			ck.Stream(m, record.FullBox(1)).Add(out...)
		}
		if err := ck.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMergeMatchesPlannerLoop pins the operator, over exact sources that vet
// nothing, to the planner loop it replaced — Pick, take the picked source's
// next record, Deduct — draw for draw under the same seed.
func TestMergeMatchesPlannerLoop(t *testing.T) {
	sizes := []int{9, 30, 1, 17}
	for seed := range uint64(20) {
		build := func() ([]*urn, []float64) {
			rng := rand.New(rand.NewPCG(seed, 1))
			urns := make([]*urn, len(sizes))
			rem := make([]float64, len(sizes))
			for i, n := range sizes {
				urns[i], rem[i] = shuffledUrn(rng, int64(i)*100, n, 0), float64(n)
			}
			return urns, rem
		}
		urns, rem := build()
		got, err := mergeOf(rand.New(rand.NewPCG(seed, 2)), rem, urns).AppendNext(nil, 1000)
		if err != nil {
			t.Fatal(err)
		}
		urns, rem = build()
		plan := New(rand.New(rand.NewPCG(seed, 2)), rem)
		var want []record.Record
		for {
			i, ok := plan.Pick()
			if !ok {
				break
			}
			want, _, _ = urns[i].draw(want, 1)
			plan.Deduct(i)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: operator drew %v, planner loop %v", seed, got, want)
		}
	}
}

// TestMergeRngUse pins what the operator takes from its rng: one variate per
// pick, none once no mass is left (the drain), and none over one source,
// whose request passes through in a single draw.
func TestMergeRngUse(t *testing.T) {
	src := &countingSource{Source: rand.NewPCG(1, 1)}
	rng := rand.New(src)
	// Exact counts, one source vetting a third: every draw is one pick.
	urns := []*urn{shuffledUrn(rng, 0, 12, 3), shuffledUrn(rng, 100, 30, 0)}
	src.n = 0
	m := mergeOf(rng, []float64{12, 30}, urns)
	out, err := m.AppendNext(nil, 100)
	if err != nil || len(out) != 38 || src.n != 42 {
		t.Fatalf("exact merge: %d records, %v, %d variates; want 38 records and 42 variates (one per draw)", len(out), err, src.n)
	}
	// Undershot counts: five picks spend the mass, the drain takes no variate.
	urns = []*urn{shuffledUrn(rng, 0, 10, 0), shuffledUrn(rng, 100, 10, 0)}
	src.n = 0
	m = mergeOf(rng, []float64{3, 2}, urns)
	out, err = m.AppendNext(nil, 100)
	if err != nil || len(out) != 20 || src.n != 5 {
		t.Fatalf("undershot merge: %d records, %v, %d variates; want 20 records and 5 variates", len(out), err, src.n)
	}
	// One source: no variate, one draw for the whole request.
	u := shuffledUrn(rng, 0, 50, 0)
	src.n = 0
	m = Merge(rng, []Source{{Count: 50, Draw: u.draw}})
	out, err = m.AppendNext(nil, 64)
	if err != nil || len(out) != 50 || src.n != 0 || u.draws != 1 {
		t.Fatalf("one source: %d records, %v, %d variates, %d draws; want 50 records, 0 variates, 1 draw", len(out), err, src.n, u.draws)
	}
}

// TestMergeDrySourceTakesNoRestore: a source found dry keeps a zero count,
// even when another source's draw hands mass back to it; a live one takes
// the mass.
func TestMergeDrySourceTakesNoRestore(t *testing.T) {
	m := mergeOf(rand.New(rand.NewPCG(3, 3)), []float64{2, 3}, []*urn{{}, {keys: []int64{1, 2, 3}}})
	if got, err := m.take(0, nil); len(got) != 0 || err != nil || !m.dry[0] {
		t.Fatalf("take from an empty urn = %v, %v, dry %v; want nothing and dry", got, err, m.dry[0])
	}
	m.Restore(0)
	m.Restore(1)
	if m.rem[0] != 0 || m.rem[1] != 4 {
		t.Fatalf("counts after Restore = %v, want [0 4]", m.rem)
	}
	for range 4 {
		if i, ok := m.Pick(); !ok || i != 1 {
			t.Fatalf("pick = (%d, %v), want source 1", i, ok)
		}
	}
}

// TestMergeCheckPolledBeforePick: an error Check reports surfaces before
// the merge draws a variate or a record, and the next call draws on.
func TestMergeCheckPolledBeforePick(t *testing.T) {
	lost := errors.New("lost")
	pending := lost
	m := mergeOf(rand.New(rand.NewPCG(5, 5)), []float64{2, 2}, []*urn{{keys: []int64{1, 2}}, {keys: []int64{3, 4}}})
	m.Check = func() error { err := pending; pending = nil; return err }
	if got, err := m.AppendNext(nil, 4); len(got) != 0 || err != lost {
		t.Fatalf("first call = %v, %v; want nothing and the Check error", got, err)
	}
	ref := rand.New(rand.NewPCG(5, 5))
	if a, b := m.rng.Float64(), ref.Float64(); a != b {
		t.Fatalf("the failed call consumed a variate")
	}
	if got, err := m.AppendNext(nil, 4); len(got) != 4 || err != nil {
		t.Fatalf("second call = %d records, %v; want all 4", len(got), err)
	}
}

// TestMergeLostLeafForfeitsItsShare: a draw that loses a stored leaf, however
// deeply the *core.DegradedError is wrapped, takes the source's count over its
// leaves off the source, once per loss; a transient fault, or a loss in a
// source with no leaves, takes nothing. The source stays live either way.
func TestMergeLostLeafForfeitsItsShare(t *testing.T) {
	var fault error
	fail := func(dst []record.Record, _ int) ([]record.Record, float64, error) { return dst, 0, fault }
	m := Merge(rand.New(rand.NewPCG(7, 7)), []Source{{Count: 10, Leaves: 4, Draw: fail}, {Count: 6, Draw: fail}})
	for _, c := range []struct {
		fault error
		want  []float64
	}{
		{errTransient, []float64{10, 6}},
		{fmt.Errorf("shard 2: %w", &core.DegradedError{Leaf: 3}), []float64{7.5, 6}},
		{&core.DegradedError{Leaf: 5}, []float64{5, 6}},
	} {
		fault = c.fault
		for i := range 2 {
			if _, err := m.take(i, nil); err != fault {
				t.Fatalf("source %d: err = %v, want the draw's %v", i, err, fault)
			}
		}
		if !slices.Equal(m.rem, c.want) || m.dry[0] || m.dry[1] {
			t.Fatalf("after %v: counts %v dry %v, want %v and both live", c.fault, m.rem, m.dry, c.want)
		}
	}
}
