// Package figures regenerates every figure of the paper's evaluation
// (Section VIII): Figures 11-14 (one-dimensional sampling-rate curves at
// 0.25%, 2.5% and 25% selectivity, plus the run-to-completion crossover),
// Figure 15(a)/(b) (ACE query-time buffering), and Figures 16-18 (the
// two-dimensional experiment against an R-Tree).
//
// Each figure is produced exactly the way the paper describes: a synthetic
// SALE relation is generated, the three competing structures are built
// over it, a set of range predicates at the target selectivity is sampled
// with each structure, the number of retrieved samples is recorded against
// simulated time, and the average over the query set is reported with the
// paper's normalized axes (percent of the time required to scan the
// relation; percent of the relation's records returned).
package figures

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sampleview/internal/iosim"
)

// Config scales an experiment run.
type Config struct {
	// N is the number of records in the SALE relation. The paper used 200M
	// (20 GB); the default 1M preserves every normalized curve shape while
	// regenerating in seconds (see DESIGN.md on scaling).
	N int64
	// Queries is how many random predicates are averaged per figure; the
	// paper used 10.
	Queries int
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// Model is the simulated disk model (zero value: iosim.DefaultModel).
	Model iosim.Model
	// MemPages is the sort memory budget for construction.
	MemPages int
	// PoolPages is the LRU buffer pool capacity used by the B+-Tree and
	// R-Tree samplers; 0 sizes it relative to the relation (see
	// autoPoolPages).
	PoolPages int
	// GridPoints is the number of x-axis samples per reported series.
	GridPoints int
	// Parallel is the number of worker goroutines used to regenerate a
	// figure: the workbench's competing structures build concurrently (and
	// the ACE construction pipeline itself fans out, see
	// core.Params.Parallelism), and a figure's averaged queries run
	// concurrently per method. 0 or 1 builds with one worker and runs the
	// queries on the calling goroutine. It sets the worker count only: every
	// ACE query and permuted-file scan is charged to a clock forked for it
	// (iosim.Sim.Fork), which starts with the disk head unpositioned, as the
	// paper's queries each run alone; so the figures are the same at every
	// worker count (TestFiguresIgnoreWorkerCount).
	Parallel int
	// Physical disables scale matching. The paper's normalized curves
	// (percent-of-scan-time axes) are governed by dimensionless ratios:
	// random access cost over sequential page transfer (8.33 on the
	// paper's testbed), draw CPU relative to per-record scan time, and the
	// number of leaf retrievals that fit the plotted window (set by the
	// relation's page count). Scale matching (the default) pins the
	// random:sequential ratio at the paper's value for whatever page size
	// is configured; combining it with a smaller page size (cmd/svbench
	// uses 8 KB) raises the page count of a scaled-down relation toward
	// the paper's leaf-count geometry. See DESIGN.md. Set Physical to
	// charge the configured disk model exactly as given.
	Physical bool
}

// paperRandSeqRatio is the paper testbed's random-access : sequential-
// transfer cost ratio at its 64 KB page size (10 ms vs 1.2 ms).
const paperRandSeqRatio = 8.333

// DefaultConfig returns the configuration used by cmd/svbench.
func DefaultConfig() Config {
	return Config{
		N:          1_000_000,
		Queries:    10,
		Seed:       2006,
		Model:      iosim.DefaultModel(),
		MemPages:   64,
		PoolPages:  0, // auto: sized relative to the relation
		GridPoints: 160,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.N == 0 {
		c.N = d.N
	}
	if c.Queries == 0 {
		c.Queries = d.Queries
	}
	if c.Model.PageSize == 0 {
		c.Model = d.Model
	}
	if c.MemPages == 0 {
		c.MemPages = d.MemPages
	}
	if c.GridPoints == 0 {
		c.GridPoints = d.GridPoints
	}
	return c
}

// Series is one plotted line.
type Series struct {
	Name string
	X    []float64 // percent of relation scan time
	Y    []float64 // percent of relation records (or fraction, for Fig 15)
}

// Figure is one regenerated result.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// IDs lists every figure in the paper's evaluation, in paper order.
func IDs() []string {
	return []string{"11", "12", "13", "14", "15a", "15b", "16", "17", "18"}
}

// WithPageSize returns c on disk pages of ps bytes, keeping the sequential
// transfer rate (~53 MB/s) of the paper's testbed and the external sorts'
// memory budget at ~16 MB, so construction does not degenerate into
// many-pass merges with small pages.
func (c Config) WithPageSize(ps int) Config {
	m := c.Model
	m.SequentialRead = time.Duration(float64(m.SequentialRead) * float64(ps) / float64(m.PageSize))
	m.SequentialWrite = m.SequentialRead
	m.PageSize = ps
	c.Model = m
	c.MemPages = max(c.MemPages, 16<<20/ps)
	return c
}

// figureDefs maps every figure id to the dimensionality of its workbench
// and the run that draws it.
var figureDefs = map[string]struct {
	dims int
	run  func(*Workbench) (*Figure, error)
}{
	"11":  {1, func(wb *Workbench) (*Figure, error) { return Fig1DOn(wb, "11", 0.0025, 0.04) }},
	"12":  {1, func(wb *Workbench) (*Figure, error) { return Fig1DOn(wb, "12", 0.025, 0.04) }},
	"13":  {1, func(wb *Workbench) (*Figure, error) { return Fig1DOn(wb, "13", 0.25, 0.04) }},
	"14":  {1, Fig14On},
	"15a": {1, func(wb *Workbench) (*Figure, error) { return Fig15On(wb, "15a", 0.0025) }},
	"15b": {1, func(wb *Workbench) (*Figure, error) { return Fig15On(wb, "15b", 0.025) }},
	"16":  {2, func(wb *Workbench) (*Figure, error) { return Fig2DOn(wb, "16", 0.0025, 0.05) }},
	"17":  {2, func(wb *Workbench) (*Figure, error) { return Fig2DOn(wb, "17", 0.025, 0.05) }},
	"18":  {2, func(wb *Workbench) (*Figure, error) { return Fig2DOn(wb, "18", 0.25, 0.05) }},
}

// FigureDims returns the dimensionality of the workbench figure id runs on,
// or 0 for an unknown id.
func FigureDims(id string) int { return figureDefs[id].dims }

// GenerateOn regenerates the figure with the given ID against a workbench
// of its dimensionality (FigureDims).
func GenerateOn(wb *Workbench, id string) (*Figure, error) {
	def, ok := figureDefs[id]
	if !ok {
		return nil, fmt.Errorf("figures: unknown figure %q (known: %v)", id, IDs())
	}
	return def.run(wb)
}

// curve is the raw step function (time, cumulative value) one query run
// produces.
type curve struct {
	ts []time.Duration
	ys []float64
}

func (c *curve) add(t time.Duration, y float64) {
	c.ts = append(c.ts, t)
	c.ys = append(c.ys, y)
}

// at returns the step-function value at time t (the last recorded value
// not after t). Timestamps are nondecreasing, so it binary-searches.
func (c *curve) at(t time.Duration) float64 {
	i := sort.Search(len(c.ts), func(i int) bool { return c.ts[i] > t })
	if i == 0 {
		return 0
	}
	return c.ys[i-1]
}

// resample averages a set of per-query curves onto a uniform grid over
// [0, maxFrac] of scanTime, returning x (percent of scan), and the min, mean
// and max y (Fig 15 draws all three).
func resample(curves []curve, scanTime time.Duration, maxFrac float64, points int) (xs, mins, means, maxs []float64) {
	xs = make([]float64, points)
	mins = make([]float64, points)
	means = make([]float64, points)
	maxs = make([]float64, points)
	for i := 0; i < points; i++ {
		frac := maxFrac * float64(i+1) / float64(points)
		t := time.Duration(float64(scanTime) * frac)
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for q := range curves {
			v := curves[q].at(t)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			sum += v
		}
		xs[i] = frac * 100
		mins[i] = lo
		means[i] = sum / float64(len(curves))
		maxs[i] = hi
	}
	return xs, mins, means, maxs
}
