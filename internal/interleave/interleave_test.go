package interleave

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sampleview/internal/oracle"
	"sampleview/internal/record"
)

// TestPickProportionalToRemaining: picks in proportion to what each source
// has left, deducting as they go, merge sources of 10, 30 and 60 shuffled
// records into uniform prefixes of the union, pooled over 6,000 seeds
// (60,000 records at cut 10).
func TestPickProportionalToRemaining(t *testing.T) {
	checkPlanner(t, []int{10, 30, 60}, 6000)
}

// checkPlanner merges shuffled sources of the given sizes over disjoint key
// ranges by Pick and Deduct, once per seed, and holds each merged stream to
// the prefix oracle.
func checkPlanner(t *testing.T, sizes []int, trials int) {
	t.Helper()
	var recs []record.Record
	for i := range sum(sizes) {
		recs = append(recs, record.Record{Key: int64(i), Seq: uint64(i)})
	}
	m, ck := oracle.NewModel(recs), oracle.NewChecker()
	for trial := range uint64(trials) {
		rng := rand.New(rand.NewPCG(trial, 0x51ed))
		srcs := make([][]record.Record, len(sizes))
		rem := make([]float64, len(sizes))
		for i, base := 0, 0; i < len(sizes); base, i = base+sizes[i], i+1 {
			srcs[i] = slices.Clone(recs[base : base+sizes[i]])
			rng.Shuffle(sizes[i], func(a, b int) { srcs[i][a], srcs[i][b] = srcs[i][b], srcs[i][a] })
			rem[i] = float64(sizes[i])
		}
		p, o := New(rng, rem), ck.Stream(m, record.FullBox(1))
		for idx, ok := p.Pick(); ok; idx, ok = p.Pick() {
			src := srcs[idx]
			o.Add(src[len(src)-1])
			srcs[idx] = src[:len(src)-1]
			p.Deduct(idx)
		}
		o.Drained()
	}
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
}

func sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

func TestDeductDrivesSourceToZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	m := New(rng, []float64{2, 5})
	m.Deduct(0)
	m.Deduct(0)
	if got := m.rem[0]; got != 0 {
		t.Fatalf("remaining[0] = %v after deducting the full count, want 0", got)
	}
	// Every further pick must land on the only source with mass.
	for i := 0; i < 50; i++ {
		idx, ok := m.Pick()
		if !ok || idx != 1 {
			t.Fatalf("pick %d: got (%d, %v), want (1, true)", i, idx, ok)
		}
	}
	if total(m) != 5 {
		t.Fatalf("total = %v, want 5", total(m))
	}
}

func TestExhaustAndReduce(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	m := New(rng, []float64{7.5, 3, 4})
	m.Exhaust(2)
	if m.rem[2] != 0 {
		t.Fatalf("remaining[2] = %v after Exhaust, want 0", m.rem[2])
	}
	m.reduce(0, 5)
	if got := m.rem[0]; got != 2.5 {
		t.Fatalf("remaining[0] = %v after Reduce(0, 5), want 2.5", got)
	}
	m.reduce(0, 100)
	if got := m.rem[0]; got != 0 {
		t.Fatalf("remaining[0] = %v after over-Reduce, want clamp to 0", got)
	}
	m.Restore(2)
	if got := m.rem[2]; got != 1 {
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
	if total(m) != 0 {
		t.Fatalf("total = %v, want 0", total(m))
	}
}

// TestTwoWayMatchesLegacyDraw pins the exact rng consumption of the
// two-way pick, so a partition's write-path merge draws as the differential
// file's two-way draw did before the pick was extracted: one Float64 per
// pick, delta side first.
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
	if got, want := total(m), 4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("total = %v, want %v", got, want)
	}
	if len(m.rem) != 3 {
		t.Fatalf("K = %d, want 3", len(m.rem))
	}
}

func total(m *Merger) float64 {
	var t float64
	for _, r := range m.rem {
		t += r
	}
	return t
}
