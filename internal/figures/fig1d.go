package figures

import (
	"fmt"
	"math/rand/v2"
	"time"

	"sampleview/internal/core"
	"sampleview/internal/par"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// queries1D pre-draws the figure's predicate set, so the per-method chains
// can run it in any order (or concurrently) while consuming the query
// generator's stream exactly as the original interleaved loop did.
func queries1D(seed uint64, n int, sel float64) []record.Box {
	qg := workload.NewQueryGen(seed)
	qs := make([]record.Box, n)
	for i := range qs {
		qs[i] = qg.Range1D(sel)
	}
	return qs
}

// Fig1DOn produces Figures 11-13 on a one-dimensional workbench: average
// sampling rate of the ACE Tree, the ranked B+-Tree and the permuted file
// over `Queries` one-dimensional predicates at the given selectivity,
// plotted over the first maxFrac*scan-time of execution.
func Fig1DOn(wb *Workbench, id string, sel, maxFrac float64) (*Figure, error) {
	if wb.Dims != 1 {
		return nil, fmt.Errorf("figures: figure %s needs a 1-d workbench", id)
	}
	cfg := wb.Cfg
	limit := time.Duration(float64(wb.ScanTime) * maxFrac)
	qs := queries1D(cfg.Seed+10, cfg.Queries, sel)
	rng := rand.New(rand.NewPCG(cfg.Seed+11, cfg.Seed+12))
	curves, err := wb.race(qs, limit, func(q record.Box) (curve, error) { return wb.runBTree(q.Dim(0), limit, rng) }, true)
	if err != nil {
		return nil, err
	}
	return wb.meanFigure(id, fmt.Sprintf("Sampling rate, 1-d predicate, %.2f%% selectivity", sel*100),
		maxFrac, "B+ Tree", curves), nil
}

// Fig14On produces Figure 14 on a one-dimensional workbench: the
// 2.5%-selectivity experiment run until all three methods have returned
// every matching record, exposing the late crossover points.
func Fig14On(wb *Workbench) (*Figure, error) {
	if wb.Dims != 1 {
		return nil, fmt.Errorf("figures: figure 14 needs a 1-d workbench")
	}
	cfg := wb.Cfg
	const sel = 0.025
	noLimit := time.Duration(1<<62 - 1)
	qs := queries1D(cfg.Seed+20, cfg.Queries, sel)
	rng := rand.New(rand.NewPCG(cfg.Seed+21, cfg.Seed+22))
	curves, err := wb.race(qs, noLimit, func(q record.Box) (curve, error) { return wb.runBTree(q.Dim(0), noLimit, rng) }, true)
	if err != nil {
		return nil, err
	}
	var longest time.Duration
	for _, method := range curves {
		for _, c := range method {
			if n := len(c.ts); n > 0 && c.ts[n-1] > longest {
				longest = c.ts[n-1]
			}
		}
	}
	maxFrac := float64(longest)/float64(wb.ScanTime)*1.02 + 0.01
	return wb.meanFigure("14", "Sampling rate to completion, 1-d predicate, 2.50% selectivity",
		maxFrac, "B+ Tree", curves), nil
}

// Fig15On produces Figure 15(a)/(b) on a one-dimensional workbench:
// minimum, average and maximum number of records the ACE query algorithm
// buffers (as a fraction of the relation) over ten queries at the given
// selectivity.
func Fig15On(wb *Workbench, id string, sel float64) (*Figure, error) {
	if wb.Dims != 1 {
		return nil, fmt.Errorf("figures: figure %s needs a 1-d workbench", id)
	}
	cfg := wb.Cfg
	const maxFrac = 0.11 // the paper plots to ~11% of scan time
	limit := time.Duration(float64(wb.ScanTime) * maxFrac)
	qs := queries1D(cfg.Seed+30, cfg.Queries, sel)

	curves := make([]curve, cfg.Queries)
	if err := par.ForEach(cfg.Queries, cfg.workers(), func(i int) (err error) {
		curves[i], err = wb.runACE(qs[i], limit, core.StreamOptions{ReadEveryLeaf: true}, wb.bufferedFrac)
		return err
	}); err != nil {
		return nil, err
	}
	xs, mins, means, maxs := resample(curves, wb.ScanTime, maxFrac, cfg.GridPoints)
	return &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Records buffered by the ACE Tree, %.2f%% selectivity", sel*100),
		XLabel: "% of time required to scan relation",
		YLabel: "fraction of total number of records in the relation",
		Series: []Series{
			{Name: "Minimum of queries", X: xs, Y: mins},
			{Name: "Average across queries", X: xs, Y: means},
			{Name: "Maximum of queries", X: xs, Y: maxs},
		},
	}, nil
}

// race runs the competitors of a sampling-rate figure over qs, each to
// limit: the ACE Tree and the permuted file fan out per query, and the
// rank-based baseline (B+-Tree or R-Tree, whose runs share a draw rng and a
// buffer pool) runs its queries in order as one chain. It returns the
// curves of the three, in that order, then, with system, the ACE Tree's own
// read path's, run last so the other three are charged as without it.
func (wb *Workbench) race(qs []record.Box, limit time.Duration, baseline func(record.Box) (curve, error), system bool) ([][]curve, error) {
	curves := make([][]curve, 3, 4)
	chain := func(m, workers int, run func(record.Box) (curve, error)) func() error {
		curves[m] = make([]curve, len(qs))
		return func() error {
			return par.ForEach(len(qs), workers, func(i int) (err error) {
				curves[m][i], err = run(qs[i])
				return err
			})
		}
	}
	ace := func(opts core.StreamOptions) func(record.Box) (curve, error) {
		return func(q record.Box) (curve, error) { return wb.runACE(q, limit, opts, wb.emittedPct) }
	}
	perm := func(q record.Box) (curve, error) { return wb.runPerm(q, limit) }
	w := wb.Cfg.workers()
	chains := []func() error{chain(0, w, ace(core.StreamOptions{ReadEveryLeaf: true})), chain(1, 1, baseline), chain(2, w, perm)}
	if system {
		curves = curves[:4]
		chains = append(chains, chain(3, w, ace(core.StreamOptions{})))
	}
	return curves, wb.runChains(chains...)
}

// meanFigure plots the mean of each method's curves from race over the
// first maxFrac of scan time.
func (wb *Workbench) meanFigure(id, title string, maxFrac float64, baseline string, curves [][]curve) *Figure {
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "% of time required to scan relation",
		YLabel: "% of total number of records in the relation",
	}
	for m, name := range []string{"ACE Tree", baseline, "Randomly permuted file", "ACE Tree (system)"}[:len(curves)] {
		xs, _, ys, _ := resample(curves[m], wb.ScanTime, maxFrac, wb.Cfg.GridPoints)
		fig.Series = append(fig.Series, Series{Name: name, X: xs, Y: ys})
	}
	return fig
}
