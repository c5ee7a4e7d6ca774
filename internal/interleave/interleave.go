// Package interleave implements the merge-by-population draw that keeps a
// stream assembled from several independent sample sources a single uniform
// without-replacement sample over the union of their populations.
//
// The two-way case is the Brown & Haas hypergeometric interleaving the
// paper sketches for differential files (Section IX): when two sources hold
// uniform without-replacement samples of disjoint populations, drawing the
// next record from source i with probability proportional to how many
// matching records remain in source i yields a uniform without-replacement
// sample of the union. The argument generalizes verbatim to K sources —
// at every step the next emitted record is equally likely to be any of the
// remaining matching records across all sources — which is exactly the
// classical merge of Olken-style per-partition samplers and what the
// sharded views in internal/shard rely on.
//
// A Merger tracks the remaining matching count of each source. Counts may
// be exact (an in-memory differential buffer) or estimated (an ACE tree's
// internal-node interpolation); estimated counts drift, so callers handle
// two edge cases the Merger surfaces explicitly: a source may run dry
// before its count reaches zero (call Exhaust), and records may remain
// after the count hits zero (the caller drains sources directly once Pick
// reports no mass).
package interleave

import (
	"fmt"
	"math/rand/v2"
)

// Merger chooses which of K sources supplies the next record of a merged
// sample stream. It is not safe for concurrent use; callers that share one
// across goroutines serialize on their own lock.
type Merger struct {
	rng *rand.Rand
	rem []float64
}

// New returns a Merger over len(remaining) sources, where remaining[i] is
// the (exact or estimated) number of matching records source i still holds.
// The slice is copied. New panics if rng is nil or remaining is empty,
// which indicates a programming error in stream setup.
func New(rng *rand.Rand, remaining []float64) *Merger {
	if rng == nil {
		panic("interleave: nil random source")
	}
	if len(remaining) == 0 {
		panic("interleave: no sources")
	}
	rem := make([]float64, len(remaining))
	for i, r := range remaining {
		if r > 0 {
			rem[i] = r
		}
	}
	return &Merger{rng: rng, rem: rem}
}

// K returns the number of sources.
func (m *Merger) K() int { return len(m.rem) }

// Remaining returns the tracked remaining count of source i.
func (m *Merger) Remaining(i int) float64 { return m.rem[i] }

// Total returns the total remaining count across all sources.
func (m *Merger) Total() float64 {
	var t float64
	for _, r := range m.rem {
		t += r
	}
	return t
}

// Pick draws the index of the source that supplies the next record, with
// probability proportional to each source's remaining count. It consumes
// exactly one uniform variate from the rng when any mass remains; when no
// mass remains it consumes none and reports false, after which the caller
// drains sources directly (counts were estimates and may have undershot).
func (m *Merger) Pick() (int, bool) {
	total := m.Total()
	if total <= 0 {
		return 0, false
	}
	x := m.rng.Float64() * total
	for i, r := range m.rem {
		if r <= 0 {
			continue
		}
		if x < r {
			return i, true
		}
		x -= r
	}
	// Floating-point edge: x landed past the last positive mass. Return the
	// last source with mass.
	for i := len(m.rem) - 1; i >= 0; i-- {
		if m.rem[i] > 0 {
			return i, true
		}
	}
	return 0, false
}

// Deduct records that one matching record was successfully drawn from
// source i, clamping at zero.
func (m *Merger) Deduct(i int) {
	if m.rem[i] > 0 {
		m.rem[i]--
		if m.rem[i] < 0 {
			m.rem[i] = 0
		}
	}
}

// Reduce removes delta of remaining mass from source i (clamping at zero):
// the bookkeeping for records that are known lost rather than drawn, such
// as a degraded leaf's expected contribution.
func (m *Merger) Reduce(i int, delta float64) {
	m.rem[i] -= delta
	if m.rem[i] < 0 {
		m.rem[i] = 0
	}
}

// Restore returns one unit of mass to source i: a loss its count was
// reduced for in advance turned out to fall on another source.
func (m *Merger) Restore(i int) { m.rem[i]++ }

// Exhaust zeroes source i's remaining count: the source ran dry earlier
// than its (estimated) count predicted.
func (m *Merger) Exhaust(i int) { m.rem[i] = 0 }

// String renders the remaining counts, for diagnostics.
func (m *Merger) String() string {
	return fmt.Sprintf("interleave.Merger%v", m.rem)
}
