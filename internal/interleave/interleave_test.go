package interleave

import (
	"math"
	"math/rand/v2"
	"testing"

	"sampleview/internal/stats"
)

func TestPickProportionalToRemaining(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	weights := []float64{10, 30, 60}
	m := New(rng, weights)
	const draws = 60000
	counts := make([]int64, len(weights))
	for i := 0; i < draws; i++ {
		idx, ok := m.Pick()
		if !ok {
			t.Fatalf("draw %d: no mass reported with remaining %v", i, m.rem)
		}
		counts[idx]++
	}
	expected := make([]float64, len(weights))
	for i, w := range weights {
		expected[i] = float64(draws) * w / 100
	}
	p, err := stats.ChiSquarePValue(counts, expected)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("draw frequencies %v diverge from weights %v (p=%g)", counts, weights, p)
	}
}

func TestDeductDrivesSourceToZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	m := New(rng, []float64{2, 5})
	m.Deduct(0)
	m.Deduct(0)
	if got := m.Remaining(0); got != 0 {
		t.Fatalf("remaining[0] = %v after deducting the full count, want 0", got)
	}
	// Every further pick must land on the only source with mass.
	for i := 0; i < 50; i++ {
		idx, ok := m.Pick()
		if !ok || idx != 1 {
			t.Fatalf("pick %d: got (%d, %v), want (1, true)", i, idx, ok)
		}
	}
	if m.Total() != 5 {
		t.Fatalf("total = %v, want 5", m.Total())
	}
}

func TestExhaustAndReduce(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	m := New(rng, []float64{7.5, 3, 4})
	m.Exhaust(2)
	if m.Remaining(2) != 0 {
		t.Fatalf("remaining[2] = %v after Exhaust, want 0", m.Remaining(2))
	}
	m.Reduce(0, 5)
	if got := m.Remaining(0); got != 2.5 {
		t.Fatalf("remaining[0] = %v after Reduce(0, 5), want 2.5", got)
	}
	m.Reduce(0, 100)
	if got := m.Remaining(0); got != 0 {
		t.Fatalf("remaining[0] = %v after over-Reduce, want clamp to 0", got)
	}
	m.Restore(2)
	if got := m.Remaining(2); got != 1 {
		t.Fatalf("remaining[2] = %v after Restore on an exhausted source, want 1", got)
	}
	m.Exhaust(2)
	idx, ok := m.Pick()
	if !ok || idx != 1 {
		t.Fatalf("pick = (%d, %v), want (1, true): only source 1 has mass", idx, ok)
	}
}

func TestPickReportsFalseWithNoMass(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	m := New(rng, []float64{0, -3, 0})
	if _, ok := m.Pick(); ok {
		t.Fatal("Pick reported mass on an all-zero merger")
	}
	// Negative initial counts are clamped by New.
	if m.Total() != 0 {
		t.Fatalf("total = %v, want 0", m.Total())
	}
}

// TestMergedStreamUniformOverUnion simulates the full K-way merge contract:
// K sources each holding a shuffled (i.e. uniform without-replacement)
// sequence over a disjoint population, merged by remaining-count draws,
// must yield a uniform without-replacement permutation of the union — every
// element equally likely at every prefix position.
func TestMergedStreamUniformOverUnion(t *testing.T) {
	const (
		k      = 4
		perSrc = 25
		total  = k * perSrc
		trials = 4000
		prefix = 10
	)
	// firstSeen[v] counts how often element v lands in the first `prefix`
	// draws of the merged stream.
	firstSeen := make([]int64, total)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x51ed))
		srcs := make([][]int, k)
		rem := make([]float64, k)
		for s := 0; s < k; s++ {
			srcs[s] = rng.Perm(perSrc)
			for i := range srcs[s] {
				srcs[s][i] += s * perSrc
			}
			rem[s] = perSrc
		}
		m := New(rng, rem)
		for pos := 0; pos < prefix; pos++ {
			idx, ok := m.Pick()
			if !ok {
				t.Fatalf("trial %d: mass exhausted after %d of %d draws", trial, pos, total)
			}
			src := srcs[idx]
			v := src[len(src)-1]
			srcs[idx] = src[:len(src)-1]
			m.Deduct(idx)
			firstSeen[v]++
		}
	}
	expected := make([]float64, total)
	for i := range expected {
		expected[i] = float64(trials) * prefix / total
	}
	p, err := stats.ChiSquarePValue(firstSeen, expected)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("merged prefix membership is not uniform over the union (p=%g)", p)
	}
}

// TestTwoWayMatchesLegacyDraw pins the exact rng consumption of the
// two-way pick so diffview's merged streams draw identically to the
// pre-extraction code: one Float64 per pick, delta side first.
func TestTwoWayMatchesLegacyDraw(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a := rand.New(rand.NewPCG(seed, seed+1))
		b := rand.New(rand.NewPCG(seed, seed+1))
		deltaRem, mainRem := 13.0, 29.0
		m := New(a, []float64{deltaRem, mainRem})
		for step := 0; step < 40; step++ {
			idx, ok := m.Pick()
			if !ok {
				break
			}
			wantDelta := b.Float64()*(deltaRem+mainRem) < deltaRem
			if (idx == 0) != wantDelta {
				t.Fatalf("seed %d step %d: merger picked %d, legacy draw picked delta=%v", seed, step, idx, wantDelta)
			}
			m.Deduct(idx)
			if idx == 0 {
				deltaRem--
			} else {
				mainRem--
			}
			if deltaRem < 0 || mainRem < 0 {
				break
			}
		}
	}
}

func TestTotalSumsPositiveMass(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	m := New(rng, []float64{1.25, 2.75, 0})
	if got, want := m.Total(), 4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("total = %v, want %v", got, want)
	}
	if m.K() != 3 {
		t.Fatalf("K = %d, want 3", m.K())
	}
}
