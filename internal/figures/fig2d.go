package figures

import (
	"fmt"
	"math/rand/v2"
	"time"

	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// fig2D produces Figures 16-18: the two-dimensional experiment, where a
// k-d ACE Tree over (DAY, AMOUNT) competes against an STR-packed R-Tree
// and the permuted file on square box predicates at the given selectivity.
func fig2D(cfg Config, id string, sel, maxFrac float64) (*Figure, error) {
	wb, err := NewWorkbench(cfg, 2)
	if err != nil {
		return nil, err
	}
	return Fig2DOn(wb, id, sel, maxFrac)
}

// Fig2DOn is fig2D against an existing two-dimensional workbench.
func Fig2DOn(wb *Workbench, id string, sel, maxFrac float64) (*Figure, error) {
	if wb.Dims != 2 {
		return nil, fmt.Errorf("figures: figure %s needs a 2-d workbench", id)
	}
	cfg := wb.Cfg
	limit := time.Duration(float64(wb.ScanTime) * maxFrac)
	qg := workload.NewQueryGen(cfg.Seed + 40)
	qs := make([]record.Box, cfg.Queries)
	for i := range qs {
		qs[i] = qg.Box2D(sel)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed+41, cfg.Seed+42))
	curves, err := wb.race(qs, limit, func(q record.Box) (curve, error) { return wb.runRTree(q, limit, rng) })
	if err != nil {
		return nil, err
	}
	return wb.meanFigure(id, fmt.Sprintf("Sampling rate, 2-d predicate, %.2f%% selectivity", sel*100),
		maxFrac, "R Tree", curves), nil
}
