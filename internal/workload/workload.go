// Package workload generates the synthetic SALE relation and the range
// query workloads used by the paper's evaluation.
//
// The paper generates DAY uniformly (Experiment 1) and (DAY, AMOUNT) from a
// bivariate uniform distribution (Experiment 2), and then samples from ten
// different range predicates per target selectivity (0.25%, 2.5%, 25%).
// Zipfian and clustered key distributions are also provided for tests and
// examples that want skewed data.
package workload

import (
	"fmt"
	"math"
	mrand "math/rand"
	"math/rand/v2"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

// KeyDomain is the half-open key domain [0, KeyDomain) used for generated
// relations, in every dimension.
const KeyDomain int64 = 1 << 30

// Distribution selects the shape of the generated key attribute.
type Distribution int

const (
	// Uniform draws keys uniformly over the domain (the paper's setting).
	Uniform Distribution = iota
	// Zipf draws keys with a zipfian frequency skew (s = 1.3) over the
	// domain, so some key values repeat very often.
	Zipf
	// Clustered draws keys from a mixture of 16 gaussian clusters spread
	// across the domain.
	Clustered
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Clustered:
		return "clustered"
	default:
		return fmt.Sprintf("distribution(%d)", int(d))
	}
}

// ParseDistribution converts a name to a Distribution.
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "zipf":
		return Zipf, nil
	case "clustered":
		return Clustered, nil
	default:
		return 0, fmt.Errorf("workload: unknown distribution %q", s)
	}
}

// Generator produces SALE records.
type Generator struct {
	dist Distribution
	rng  *rand.Rand
	zipf *mrand.Zipf
	seq  uint64
}

// NewGenerator returns a deterministic generator for the given
// distribution and seed. The AMOUNT attribute is always uniform, matching
// the paper's bivariate-uniform two-dimensional experiment.
func NewGenerator(dist Distribution, seed uint64) *Generator {
	g := &Generator{dist: dist, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
	if dist == Zipf {
		g.zipf = mrand.NewZipf(mrand.New(mrand.NewSource(int64(seed))), 1.3, 1, uint64(KeyDomain-1))
	}
	return g
}

// Next returns the next record.
func (g *Generator) Next() record.Record {
	var key int64
	switch g.dist {
	case Uniform:
		key = g.rng.Int64N(KeyDomain)
	case Zipf:
		key = int64(g.zipf.Uint64())
	case Clustered:
		cluster := g.rng.Int64N(16)
		center := (2*cluster + 1) * KeyDomain / 32
		key = center + int64(g.rng.NormFloat64()*float64(KeyDomain)/128)
		if key < 0 {
			key = 0
		} else if key >= KeyDomain {
			key = KeyDomain - 1
		}
	}
	r := record.Record{
		Key:    key,
		Amount: g.rng.Int64N(KeyDomain),
		Seq:    g.seq,
	}
	// A cheap deterministic payload so that content-equality checks in the
	// test suite are meaningful.
	for i := 0; i < len(r.Payload); i += 8 {
		r.Payload[i] = byte(g.seq >> (i % 56))
	}
	g.seq++
	return r
}

// GenerateRelation writes n records to a fresh in-memory item file on sim
// and returns it. The write is charged as sequential I/O, matching the
// bulk load of a heap file.
func GenerateRelation(sim *iosim.Sim, n int64, dist Distribution, seed uint64) (*pagefile.ItemFile, error) {
	return GenerateRelationOn(pagefile.NewMem(sim), n, dist, seed)
}

// GenerateRelationOn writes n records to the given page file, which must be
// empty, and returns the item file wrapper.
func GenerateRelationOn(f *pagefile.File, n int64, dist Distribution, seed uint64) (*pagefile.ItemFile, error) {
	if f.NumPages() != 0 {
		return nil, fmt.Errorf("workload: target file is not empty")
	}
	itf := pagefile.NewItemFile(f, record.Size)
	w := itf.NewWriter()
	g := NewGenerator(dist, seed)
	buf := make([]byte, record.Size)
	for i := int64(0); i < n; i++ {
		rec := g.Next()
		rec.Marshal(buf)
		if err := w.Write(buf); err != nil {
			return nil, fmt.Errorf("workload: writing record %d: %w", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return itf, nil
}

// QueryGen produces range queries with a target selectivity over relations
// whose keys are uniform on [0, KeyDomain).
type QueryGen struct {
	rng *rand.Rand
}

// NewQueryGen returns a deterministic query generator.
func NewQueryGen(seed uint64) *QueryGen {
	return &QueryGen{rng: rand.New(rand.NewPCG(seed, seed+1))}
}

// Range1D returns a one-dimensional query whose expected selectivity over
// uniform keys is sel (0 < sel <= 1).
func (q *QueryGen) Range1D(sel float64) record.Box {
	width := int64(sel * float64(KeyDomain))
	if width < 1 {
		width = 1
	}
	if width > KeyDomain {
		width = KeyDomain
	}
	lo := q.rng.Int64N(KeyDomain - width + 1)
	return record.Box1D(lo, lo+width-1)
}

// Box2D returns a two-dimensional query whose expected selectivity over
// bivariate-uniform keys is sel; each side covers sqrt(sel) of its
// dimension, matching square query regions.
func (q *QueryGen) Box2D(sel float64) record.Box {
	side := int64(math.Sqrt(sel) * float64(KeyDomain))
	if side < 1 {
		side = 1
	}
	if side > KeyDomain {
		side = KeyDomain
	}
	lo0 := q.rng.Int64N(KeyDomain - side + 1)
	lo1 := q.rng.Int64N(KeyDomain - side + 1)
	return record.Box2D(lo0, lo0+side-1, lo1, lo1+side-1)
}

// CountMatching scans the relation and returns the number of records inside
// the box. It charges simulated I/O like any other scan; tests that must
// not disturb an experiment's clock should run it on a scratch clone.
func CountMatching(rel *pagefile.ItemFile, q record.Box) (int64, error) {
	recs, err := CollectMatching(rel, q)
	return int64(len(recs)), err
}

// CollectMatching scans the relation and returns every record inside the
// box. Intended for tests and small relations.
func CollectMatching(rel *pagefile.ItemFile, q record.Box) ([]record.Record, error) {
	var out []record.Record
	r := rel.NewReader()
	var rec record.Record
	for i := int64(0); i < rel.Count(); i++ {
		item, err := r.Next()
		if err != nil {
			return nil, err
		}
		rec.Unmarshal(item)
		if q.ContainsRecord(&rec) {
			out = append(out, rec)
		}
	}
	return out, nil
}
