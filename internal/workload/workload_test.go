package workload

import (
	"io"
	"math"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/record"
	"sampleview/internal/stats"
)

func testSim() *iosim.Sim {
	return iosim.New(iosim.Model{
		RandomRead:      10 * time.Millisecond,
		SequentialRead:  time.Millisecond,
		RandomWrite:     10 * time.Millisecond,
		SequentialWrite: time.Millisecond,
		PageSize:        8192,
	})
}

func TestGenerateRelationBasics(t *testing.T) {
	sim := testSim()
	rel, err := GenerateRelation(sim, 5000, Uniform, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Count() != 5000 {
		t.Fatalf("Count = %d", rel.Count())
	}
	seen := make(map[uint64]bool, 5000)
	r := rel.NewReader()
	var rec record.Record
	for {
		item, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rec.Unmarshal(item)
		if rec.Key < 0 || rec.Key >= KeyDomain {
			t.Fatalf("key %d outside domain", rec.Key)
		}
		if rec.Amount < 0 || rec.Amount >= KeyDomain {
			t.Fatalf("amount %d outside domain", rec.Amount)
		}
		if seen[rec.Seq] {
			t.Fatalf("duplicate sequence number %d", rec.Seq)
		}
		seen[rec.Seq] = true
	}
	if len(seen) != 5000 {
		t.Fatalf("read %d records", len(seen))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := NewGenerator(Uniform, 7)
	b := NewGenerator(Uniform, 7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different records")
		}
	}
	c := NewGenerator(Uniform, 8)
	same := true
	a = NewGenerator(Uniform, 7)
	for i := 0; i < 100; i++ {
		if a.Next().Key != c.Next().Key {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical key streams")
	}
}

func TestUniformKeysAreUniform(t *testing.T) {
	g := NewGenerator(Uniform, 1)
	const n, buckets = 20000, 64
	counts := make([]int64, buckets)
	for range n {
		counts[g.Next().Key*buckets/KeyDomain]++
	}
	if p, err := stats.ChiSquareUniformPValue(counts); err != nil || p < 0.001 {
		t.Fatalf("uniform generator failed the chi-square test over %d key buckets: p=%v (%v)", buckets, p, err)
	}
}

func TestZipfKeysAreSkewed(t *testing.T) {
	g := NewGenerator(Zipf, 1)
	small := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Key < KeyDomain/100 {
			small++
		}
	}
	// Under uniformity ~1% of keys land in the lowest percentile; zipf puts
	// the overwhelming majority there.
	if small < n/2 {
		t.Fatalf("zipf keys not skewed: %d/%d in lowest percentile", small, n)
	}
}

func TestClusteredKeysInDomain(t *testing.T) {
	g := NewGenerator(Clustered, 3)
	for i := 0; i < 20000; i++ {
		k := g.Next().Key
		if k < 0 || k >= KeyDomain {
			t.Fatalf("clustered key %d outside domain", k)
		}
	}
}

func TestParseDistribution(t *testing.T) {
	for _, name := range []string{"uniform", "zipf", "clustered"} {
		d, err := ParseDistribution(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.String() != name {
			t.Fatalf("round trip %q -> %q", name, d.String())
		}
	}
	if _, err := ParseDistribution("nope"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestRange1DSelectivity(t *testing.T) {
	sim := testSim()
	rel, err := GenerateRelation(sim, 40000, Uniform, 9)
	if err != nil {
		t.Fatal(err)
	}
	qg := NewQueryGen(11)
	for _, sel := range []float64{0.0025, 0.025, 0.25} {
		var total int64
		const queries = 5
		for i := 0; i < queries; i++ {
			q := qg.Range1D(sel)
			n, err := CountMatching(rel, q)
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
		got := float64(total) / float64(queries) / 40000
		if got < sel*0.5 || got > sel*2.0 {
			t.Fatalf("selectivity %v produced %v", sel, got)
		}
	}
}

func TestBox2DSelectivity(t *testing.T) {
	sim := testSim()
	rel, err := GenerateRelation(sim, 40000, Uniform, 10)
	if err != nil {
		t.Fatal(err)
	}
	qg := NewQueryGen(12)
	sel := 0.25
	var total int64
	const queries = 5
	for i := 0; i < queries; i++ {
		q := qg.Box2D(sel)
		if q.Dims() != 2 {
			t.Fatal("Box2D returned wrong dimensionality")
		}
		n, err := CountMatching(rel, q)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	got := float64(total) / float64(queries) / 40000
	if got < sel*0.5 || got > sel*1.5 {
		t.Fatalf("2-d selectivity %v produced %v", sel, got)
	}
	// The region should be square.
	q := qg.Box2D(0.01)
	w0 := q.Dim(0).Width()
	w1 := q.Dim(1).Width()
	if math.Abs(w0-w1) > 1 {
		t.Fatalf("query region not square: %v x %v", w0, w1)
	}
}

func TestCollectMatchingAgreesWithCount(t *testing.T) {
	sim := testSim()
	rel, err := GenerateRelation(sim, 3000, Uniform, 13)
	if err != nil {
		t.Fatal(err)
	}
	q := record.Box1D(0, KeyDomain/3)
	n, err := CountMatching(rel, q)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := CollectMatching(rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != n {
		t.Fatalf("CollectMatching returned %d records, CountMatching %d", len(recs), n)
	}
	for i := range recs {
		if !q.ContainsRecord(&recs[i]) {
			t.Fatal("collected record outside query")
		}
	}
}

func TestGenerateRelationOnNonEmptyFails(t *testing.T) {
	sim := testSim()
	rel, err := GenerateRelation(sim, 10, Uniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateRelationOn(rel.File(), 10, Uniform, 1); err == nil {
		t.Fatal("generating onto a non-empty file should fail")
	}
}
