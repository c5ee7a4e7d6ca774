package btree

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// buildCorrelated builds a tree over records whose Amount is strongly
// correlated with Key, so records sharing a leaf block have similar
// Amounts - the adversarial case for block-based sampling the paper
// describes ("values on each block closely correlated with one another").
func buildCorrelated(t *testing.T, n int64) *Tree {
	t.Helper()
	sim := testSim()
	rel := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	w := rel.NewWriter()
	buf := make([]byte, record.Size)
	rng := rand.New(rand.NewPCG(31, 32))
	for i := int64(0); i < n; i++ {
		key := rng.Int64N(1 << 20)
		rec := record.Record{
			Key:    key,
			Amount: key + rng.Int64N(1000), // Amount tracks Key
			Seq:    uint64(i),
		}
		rec.Marshal(buf)
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tree, err := Build(pagefile.NewMem(sim), rel, pagefile.NewPool(4096), 16)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestBlockSamplerCoversEveryMatch(t *testing.T) {
	sim := testSim()
	rel, err := workload.GenerateRelation(sim, 3000, workload.Uniform, 33)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(pagefile.NewMem(sim), rel, pagefile.NewPool(1024), 16)
	if err != nil {
		t.Fatal(err)
	}
	q := record.Range{Lo: workload.KeyDomain / 4, Hi: workload.KeyDomain / 2}
	want, err := workload.CountMatching(rel, record.NewBox(q))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tree.NewBlockSampler(q, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for {
		block, err := s.NextBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range block {
			if !q.Contains(rec.Key) {
				t.Fatal("block contained non-matching record")
			}
			if seen[rec.Seq] {
				t.Fatal("record returned twice")
			}
			seen[rec.Seq] = true
		}
	}
	if int64(len(seen)) != want {
		t.Fatalf("block sampler returned %d records, want %d", len(seen), want)
	}
	if s.Records() != want {
		t.Fatalf("Records() = %d", s.Records())
	}
}

func TestBlockSamplerEmptyRange(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 500, 34, 64)
	s, err := tree.NewBlockSampler(record.Range{Lo: -10, Hi: -1}, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NextBlock(); err != io.EOF {
		t.Fatal("empty range should EOF")
	}
	if _, err := tree.NewBlockSampler(record.FullRange(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// TestBlockSamplesInflateVariance demonstrates the paper's Section II-C
// objection quantitatively: with block-correlated values, the variance of
// a mean estimate built from k blocks of ~m records each is far larger
// than the variance of a truly independent sample of k*m records, so
// confidence intervals computed under an independence assumption are
// invalid.
func TestBlockSamplesInflateVariance(t *testing.T) {
	tree := buildCorrelated(t, 40_000)
	q := record.FullRange()
	rng := rand.New(rand.NewPCG(3, 3))

	const trials = 120
	const blocksPerTrial = 4

	// Block-based estimates.
	var blockMeans []float64
	var perTrialN float64
	for i := 0; i < trials; i++ {
		s, err := tree.NewBlockSampler(q, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sum, n float64
		for b := 0; b < blocksPerTrial; b++ {
			block, err := s.NextBlock()
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range block {
				sum += float64(rec.Amount)
				n++
			}
		}
		blockMeans = append(blockMeans, sum/n)
		perTrialN += n
	}
	perTrialN /= trials

	// Independent estimates of the same sample size via Algorithm 1.
	var indepMeans []float64
	for i := 0; i < trials; i++ {
		s, err := tree.NewSampler(q, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for k := 0; k < int(perTrialN); k++ {
			rec, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(rec.Amount)
		}
		indepMeans = append(indepMeans, sum/perTrialN)
	}

	varOf := func(xs []float64) float64 {
		var m float64
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		var v float64
		for _, x := range xs {
			v += (x - m) * (x - m)
		}
		return v / float64(len(xs)-1)
	}
	inflation := varOf(blockMeans) / varOf(indepMeans)
	if inflation < 5 {
		t.Fatalf("block-sample variance inflation %.1fx; expected large design effect", inflation)
	}
}

// BlockSampler implements the block-based sampling strawman of the
// paper's Section II-C (after Haas & Koenig / Chaudhuri et al.): instead
// of retrieving one record per random I/O, it samples a uniformly random
// *leaf page* whose rank interval intersects the query and returns every
// matching record on it. This improves records-per-I/O by two to three
// orders of magnitude, but the records inside a block are adjacent in key
// order and therefore correlated: an estimator that treats them as
// independent understates its error, sometimes drastically (demonstrated
// by TestBlockSamplesInflateVariance).
type BlockSampler struct {
	t       *Tree
	rng     *rand.Rand
	q       record.Range
	pages   []int64 // data pages intersecting the query's rank range, shuffled
	next    int
	records int64
}

// NewBlockSampler returns a sampler over the leaf pages of t whose
// records intersect q. Pages are visited in a uniformly random order,
// each exactly once.
func (t *Tree) NewBlockSampler(q record.Range, rng *rand.Rand) (*BlockSampler, error) {
	if rng == nil {
		return nil, fmt.Errorf("btree: block sampler needs a random source")
	}
	r1, r2, err := t.RankRange(q)
	if err != nil {
		return nil, err
	}
	s := &BlockSampler{t: t, rng: rng, q: q}
	if r2 >= r1 {
		perPage := int64(t.items.PerPage())
		p1 := t.items.StartPage() + r1/perPage
		p2 := t.items.StartPage() + r2/perPage
		for p := p1; p <= p2; p++ {
			s.pages = append(s.pages, p)
		}
		rng.Shuffle(len(s.pages), func(i, j int) { s.pages[i], s.pages[j] = s.pages[j], s.pages[i] })
	}
	return s, nil
}

// Records returns how many matching records have been returned.
func (s *BlockSampler) Records() int64 { return s.records }

// NextBlock reads one more uniformly chosen leaf page and returns its
// matching records (never empty except possibly at the boundary pages).
// It returns io.EOF once every intersecting page has been consumed.
func (s *BlockSampler) NextBlock() ([]record.Record, error) {
	if s.next >= len(s.pages) {
		return nil, io.EOF
	}
	pg := s.pages[s.next]
	s.next++
	buf := s.t.f.PageBuf()
	defer s.t.f.PutPageBuf(buf)
	if err := s.t.pool.ReadInto(s.t.f, pg, buf); err != nil {
		return nil, err
	}
	first := (pg - s.t.items.StartPage()) * int64(s.t.items.PerPage())
	n := min(int64(s.t.items.PerPage()), s.t.count-first)
	var out []record.Record
	for i := int64(0); i < n; i++ {
		var rec record.Record
		rec.Unmarshal(buf[i*record.Size : (i+1)*record.Size])
		if s.q.Contains(rec.Key) {
			out = append(out, rec)
		}
	}
	s.records += int64(len(out))
	return out, nil
}
