package figures

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"testing"
)

// figuresGolden pins the paper's figures: one FNV-64a digest per series of
// every figure at the configuration `svbench -fig all -n 200000` runs (8 KB
// pages, seed 2006, ten queries, 160 grid points), hashed over the very
// "%.4f\t%.6f" lines svbench prints. A change to how the ACE Tree, the
// B+-Tree, the R-Tree or the permuted file is built or charged flips a line.
// Re-record only in a commit that says why: delete the file, rerun, review.
//
// Figures 11-14 carry the system's own ACE read path beside the published
// one. Figure 14 drains its predicates, so there the two series must
// differ: were they equal, the golden could not see the system's read path
// at all. The drain pass fires at this scale: a copy of core whose weigh
// never buys it moves the Figure 14 system line (to 0d71c2c2691df55a).
const figuresGolden = "testdata/figures.golden"

func TestFiguresGolden(t *testing.T) {
	cfg := DefaultConfig().WithPageSize(8192)
	cfg.N = 200_000
	var out bytes.Buffer
	sums := map[string]uint64{}
	for dims := 1; dims <= 2; dims++ {
		wb, err := NewWorkbench(cfg, dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range IDs() {
			if FigureDims(id) != dims {
				continue
			}
			fig, err := GenerateOn(wb, id)
			if err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
			for _, s := range fig.Series {
				sum := seriesDigest(s)
				fmt.Fprintf(&out, "%s\t%s\t%d points\t%016x\n", id, s.Name, len(s.X), sum)
				sums[id+"/"+s.Name] = sum
			}
		}
	}
	if sums["14/ACE Tree (system)"] == sums["14/ACE Tree"] {
		t.Errorf("figure 14: the ACE Tree (system) series equals the published ACE Tree: the drain pass never fired")
	}

	want, err := os.ReadFile(figuresGolden)
	if os.IsNotExist(err) {
		if err := os.WriteFile(figuresGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist; wrote a fresh baseline — review and commit it", figuresGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, out.Bytes()) {
		t.Fatalf("figures differ from %s:\ngot\n%swant\n%s", figuresGolden, out.Bytes(), want)
	}
}

// seriesDigest is the FNV-64a digest of a series' points, hashed over the
// lines svbench prints.
func seriesDigest(s Series) uint64 {
	h := fnv.New64a()
	for i := range s.X {
		fmt.Fprintf(h, "%.4f\t%.6f\n", s.X[i], s.Y[i])
	}
	return h.Sum64()
}

// TestFiguresIgnoreWorkerCount pins that Config.Parallel sets the worker
// count and nothing else: Figures 11 and 16 are the same, series by series,
// at 0 and at 2 workers. Every query runs on a clock forked for it, so none
// inherits a disk head from the workbench's build or from an earlier query.
// The permuted file is where a sequential harness on the shared clock would
// show: its build ends by writing header page 0, so the first scan's read
// of page 1 would count as sequential.
func TestFiguresIgnoreWorkerCount(t *testing.T) {
	digests := func(workers int) map[string]uint64 {
		cfg := DefaultConfig().WithPageSize(8192)
		cfg.N = 40_000
		cfg.Parallel = workers
		sums := map[string]uint64{}
		for _, id := range []string{"11", "16"} {
			wb, err := NewWorkbench(cfg, FigureDims(id))
			if err != nil {
				t.Fatal(err)
			}
			fig, err := GenerateOn(wb, id)
			if err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
			for _, s := range fig.Series {
				sums[id+"/"+s.Name] = seriesDigest(s)
			}
		}
		return sums
	}
	one, two := digests(0), digests(2)
	if len(one) != 7 {
		t.Fatalf("figures 11 and 16 drew %d series, want 7", len(one))
	}
	for name, sum := range one {
		if two[name] != sum {
			t.Errorf("%s: %016x at 0 workers, %016x at 2", name, sum, two[name])
		}
	}
}
