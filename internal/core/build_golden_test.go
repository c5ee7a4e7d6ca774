package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"sampleview/internal/btree"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/permfile"
	"sampleview/internal/rtree"
	"sampleview/internal/workload"
)

// buildGolden is the checked-in record of what every bulk build writes and
// what it is charged: the SHA-256 of the built file, sim.Counters() and
// sim.Now() after the build, on the default disk model. The parallel-vs-
// sequential tests compare a build with itself; this file is what notices
// both sides drifting together. Built bytes depend on the standard library's
// pdqsort tie order (see package extsort), so a toolchain that changes it
// fails here by name. To re-record on purpose: delete the file, rerun, review.
const buildGolden = "testdata/build.golden"

// goldenLine builds one structure on a fresh default-model disk over the
// uniform seed-42 relation of n records and renders its golden line.
func goldenLine(t *testing.T, name string, n int64, build func(dst *pagefile.File, rel *pagefile.ItemFile) error) string {
	t.Helper()
	sim := iosim.New(iosim.DefaultModel())
	rel, err := workload.GenerateRelation(sim, n, workload.Uniform, 42)
	if err != nil {
		t.Fatal(err)
	}
	f := pagefile.NewMem(sim)
	if err := build(f, rel); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c, now := sim.Counters(), sim.Now()
	h := sha256.New()
	page := make([]byte, f.PageSize())
	for p := int64(0); p < f.NumPages(); p++ {
		if err := f.Read(p, page); err != nil {
			t.Fatal(err)
		}
		h.Write(page)
	}
	return fmt.Sprintf("%s sha256=%x pages=%d rr=%d sr=%d rw=%d sw=%d now=%d\n", name, h.Sum(nil), f.NumPages(),
		c.RandomReads, c.SequentialReads, c.RandomWrites, c.SequentialWrites, int64(now))
}

func TestBuildGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range []struct {
		n                        int64
		dims, memPages, parallel int
	}{
		{20000, 1, 2048, 2}, // svsuite's smoke build: one chunk, one run
		{20000, 1, 3, 1},    // intermediate merge passes
		{200000, 1, 64, 1},  // the EXPERIMENTS Construction row's regime
		{200000, 1, 64, 4},
		{50000, 2, 64, 2},
	} {
		name := fmt.Sprintf("ace n=%d dims=%d mem=%d par=%d", c.n, c.dims, c.memPages, c.parallel)
		out.WriteString(goldenLine(t, name, c.n, func(dst *pagefile.File, rel *pagefile.ItemFile) error {
			_, err := Create(dst, rel, Params{Seed: 7, Dims: c.dims, MemPages: c.memPages, Parallelism: c.parallel})
			return err
		}))
	}
	out.WriteString(goldenLine(t, "btree n=50000 mem=16", 50000, func(dst *pagefile.File, rel *pagefile.ItemFile) error {
		_, err := btree.Build(dst, rel, pagefile.NewPool(64), 16)
		return err
	}))
	out.WriteString(goldenLine(t, "rtree n=50000 mem=16", 50000, func(dst *pagefile.File, rel *pagefile.ItemFile) error {
		_, err := rtree.Build(dst, rel, pagefile.NewPool(64), 16)
		return err
	}))
	out.WriteString(goldenLine(t, "permfile n=50000 mem=16", 50000, func(dst *pagefile.File, rel *pagefile.ItemFile) error {
		_, err := permfile.Build(dst, rel, 16, 7)
		return err
	}))

	want, err := os.ReadFile(buildGolden)
	if os.IsNotExist(err) {
		if err := os.WriteFile(buildGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist; wrote a fresh baseline — review and commit it", buildGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, out.Bytes()) {
		t.Fatalf("builds differ from %s:\ngot\n%swant\n%s", buildGolden, out.Bytes(), want)
	}
}
