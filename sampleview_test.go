package sampleview

import (
	"io"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"
)

// genRecords produces n deterministic records with keys and amounts
// uniform on [0, domain).
func genRecords(n int, seed uint64) []Record {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	const domain = 1 << 20
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Key:    rng.Int64N(domain),
			Amount: rng.Int64N(domain),
			Seq:    uint64(i),
		}
	}
	return recs
}

func matching(recs []Record, q Box) map[uint64]bool {
	m := map[uint64]bool{}
	for i := range recs {
		if q.ContainsRecord(&recs[i]) {
			m[recs[i].Seq] = true
		}
	}
	return m
}

func TestCreateQueryRoundTrip(t *testing.T) {
	recs := genRecords(5000, 1)
	v, err := CreateFromSlice("", recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if v.Count() != 5000 || v.Dims() != 1 {
		t.Fatalf("Count=%d Dims=%d", v.Count(), v.Dims())
	}
	q := Box1D(0, 1<<19)
	want := matching(recs, q)
	stream, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !want[rec.Seq] || got[rec.Seq] {
			t.Fatal("bad stream emission")
		}
		got[rec.Seq] = true
	}
	if len(got) != len(want) {
		t.Fatalf("stream returned %d of %d matching records", len(got), len(want))
	}
}

func TestPersistentViewReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sale.view")
	recs := genRecords(2000, 2)
	v, err := CreateFromSlice(path, recs, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.Count() != 2000 {
		t.Fatalf("reopened Count = %d", v2.Count())
	}
	q := Box1D(1<<18, 1<<19)
	want := matching(recs, q)
	stream, err := v2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := stream.Next(); err != nil {
			break
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("reopened stream returned %d, want %d", n, len(want))
	}
}

func TestSampleHelper(t *testing.T) {
	recs := genRecords(3000, 3)
	v, err := CreateFromSlice("", recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	stream, err := v.Query(FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := stream.Sample(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 100 {
		t.Fatalf("Sample returned %d records", len(s))
	}
	// Exhausting returns fewer.
	rest, err := stream.Sample(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(s)+len(rest) != 3000 {
		t.Fatalf("total %d, want 3000", len(s)+len(rest))
	}
}

func TestTwoDimensionalView(t *testing.T) {
	recs := genRecords(4000, 4)
	v, err := CreateFromSlice("", recs, Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	q := Box2D(0, 1<<19, 1<<18, 1<<20)
	want := matching(recs, q)
	stream, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !want[rec.Seq] {
			t.Fatal("non-matching record emitted")
		}
		got++
	}
	if got != len(want) {
		t.Fatalf("2-d stream returned %d of %d", got, len(want))
	}
}

func TestAppendAndQuery(t *testing.T) {
	recs := genRecords(1000, 5)
	v, err := CreateFromSlice("", recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	extra := genRecords(200, 6)
	for i := range extra {
		extra[i].Seq += 1 << 40
		v.Append(extra[i])
	}
	if v.PendingAppends() != 200 || v.Count() != 1200 {
		t.Fatalf("PendingAppends=%d Count=%d", v.PendingAppends(), v.Count())
	}
	stream, err := v.Query(FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seen[rec.Seq] {
			t.Fatal("duplicate record")
		}
		seen[rec.Seq] = true
	}
	if len(seen) != 1200 {
		t.Fatalf("stream returned %d records, want 1200", len(seen))
	}
}

func TestCompact(t *testing.T) {
	recs := genRecords(1000, 7)
	v, err := CreateFromSlice("", recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	extra := genRecords(100, 8)
	for i := range extra {
		extra[i].Seq += 1 << 40
		v.Append(extra[i])
	}
	v2, err := v.Compact("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.PendingAppends() != 0 || v2.Count() != 1100 {
		t.Fatalf("compacted PendingAppends=%d Count=%d", v2.PendingAppends(), v2.Count())
	}
}

func TestEstimatorIntegration(t *testing.T) {
	recs := genRecords(20000, 9)
	v, err := CreateFromSlice("", recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	q := Box1D(0, 1<<19) // ~half the records
	est, err := v.NewEstimator(q)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		rec, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		est.Add(float64(rec.Amount))
	}
	// True average Amount of the matching records.
	var sum float64
	var n int64
	for i := range recs {
		if q.ContainsRecord(&recs[i]) {
			sum += float64(recs[i].Amount)
			n++
		}
	}
	truth := sum / float64(n)
	lo, hi := est.MeanInterval(0.999)
	if truth < lo || truth > hi {
		t.Fatalf("true mean %v outside 99.9%% interval [%v,%v]", truth, lo, hi)
	}
	sumEst, err := est.SumEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if sumEst < sum*0.9 || sumEst > sum*1.1 {
		t.Fatalf("sum estimate %v, true %v", sumEst, sum)
	}
}

func TestEstimateCount(t *testing.T) {
	recs := genRecords(10000, 10)
	v, err := CreateFromSlice("", recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	q := Box1D(0, 1<<18) // ~25%
	want := float64(len(matching(recs, q)))
	got, err := v.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("EstimateCount = %v, exact %v", got, want)
	}
}

func TestStatsReporting(t *testing.T) {
	recs := genRecords(1000, 11)
	v, err := CreateFromSlice("", recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	st := v.Stats()
	if st.Counters.Writes() == 0 {
		t.Fatal("construction should have recorded writes")
	}
}

// TestSeedsShareOneSample pins a known defect of seeded streams: over an
// empty write path a stream's seed draws nothing, because the shuttle's
// lookup table starts all-left for every stream, so two seeds return the
// same sample in the same order. The fix gives each seed its own starting
// table and flips this assertion.
func TestSeedsShareOneSample(t *testing.T) {
	v, err := CreateFromSlice("", genRecords(50_000, 31), Options{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	q := Box1D(1<<18, 1<<19)
	prefix := func(seed uint64) []Record {
		s, err := v.QuerySeeded(q, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		recs, err := s.AppendSample(nil, 1000)
		if err != nil || len(recs) != 1000 {
			t.Fatalf("seed %d: %d records, %v", seed, len(recs), err)
		}
		return recs
	}
	one, two := prefix(1), prefix(2)
	t.Run("known-defect/seeds-1-and-2-draw-identical-prefixes", func(t *testing.T) {
		if !slices.Equal(one, two) {
			t.Fatal("seeds 1 and 2 drew different first-1,000 prefixes: the defect is fixed; flip this assertion")
		}
	})
}
