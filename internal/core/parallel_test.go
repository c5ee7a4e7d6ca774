package core

import (
	"bytes"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/workload"
)

// buildBytes builds a tree over an identical relation and returns the full
// view file image.
func buildBytes(t *testing.T, n int64, p Params) []byte {
	t.Helper()
	sim := testSim()
	rel, err := workload.GenerateRelation(sim, n, workload.Uniform, 42)
	if err != nil {
		t.Fatal(err)
	}
	f := pagefile.NewMem(sim)
	if _, err := Create(f, rel, p); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, f.NumPages()*int64(f.PageSize()))
	for pg := int64(0); pg < f.NumPages(); pg++ {
		if err := f.Read(pg, out[pg*int64(f.PageSize()):]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCreateParallelByteIdentical is the tentpole determinism guarantee at
// the core layer: for a fixed seed the view file that Create writes is the
// same byte string at every parallelism level, across relation sizes that
// exercise empty input, a single leaf, partial tag blocks, and multiple
// sort runs with intermediate merge passes.
func TestCreateParallelByteIdentical(t *testing.T) {
	for _, n := range []int64{0, 1, 39, 1000, 20000} {
		for _, p := range []Params{
			{Seed: 7},
			{Seed: 7, MemPages: 3},
			{Seed: 9, Height: 5},
			{Seed: 9, Dims: 2},
		} {
			p1 := p
			p1.Parallelism = 1
			want := buildBytes(t, n, p1)
			for _, workers := range []int{2, 4} {
				pp := p
				pp.Parallelism = workers
				got := buildBytes(t, n, pp)
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d params=%+v: build with %d workers differs from 1 worker", n, p, workers)
				}
			}
		}
	}
}

// TestCreateParallelDeterministicCost asserts that the simulated
// construction cost depends neither on the worker count nor on goroutine
// scheduling: every build runs one pipeline, and per-block clock forks make
// every block's charges a pure function of the block.
func TestCreateParallelDeterministicCost(t *testing.T) {
	type cost struct {
		c   iosim.Counters
		now time.Duration
	}
	costOnce := func(p Params) cost {
		sim := testSim()
		rel, err := workload.GenerateRelation(sim, 20000, workload.Uniform, 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Create(pagefile.NewMem(sim), rel, p); err != nil {
			t.Fatal(err)
		}
		return cost{sim.Counters(), sim.Now()}
	}
	for _, mem := range []int{3, 64} {
		want := costOnce(Params{Seed: 7, MemPages: mem, Parallelism: 1})
		// 4 runs twice: the repeat catches charges that follow scheduling.
		for _, workers := range []int{2, 4, 4} {
			if got := costOnce(Params{Seed: 7, MemPages: mem, Parallelism: workers}); got != want {
				t.Fatalf("mem=%d: build with %d workers charged %+v, 1 worker %+v", mem, workers, got, want)
			}
		}
	}
}
