package figures

import (
	"io"
	"math/rand/v2"
	"time"

	"sampleview/internal/core"
	"sampleview/internal/par"
	"sampleview/internal/record"
)

// DefaultDrawOverhead is the CPU cost charged per iterative rank-based
// draw (B+-Tree and R-Tree samplers): rank arithmetic, a root-to-leaf
// descent through the buffer manager, and per-record copying. The value is
// calibrated from the paper's own Figure 11, where the B+-Tree returns
// ~80k samples in 15 seconds of which only ~8 seconds are explained by
// page faults - about 90 microseconds per draw on their 2.4 GHz testbed.
// The ACE Tree and the permuted file process whole pages in bulk and are
// charged no per-record CPU, again matching the paper's rates.
const DefaultDrawOverhead = 90 * time.Microsecond

// autoPoolPages sizes the sampler buffer pool relative to the relation
// (the paper's 1 GB of RAM against a 20 GB relation behaves like a pool
// holding a low percentage of the relation's pages).
func autoPoolPages(relPages int64) int {
	p := relPages / 64
	if p < 16 {
		p = 16
	}
	return int(p)
}

// workers resolves the configured parallelism to a worker count.
func (c Config) workers() int {
	if c.Parallel > 1 {
		return c.Parallel
	}
	return 1
}

// runChains executes the per-method query chains of one figure. A chain
// owns one competing method's whole query sequence. Chains run inline and in
// order on a sequential workbench; on a parallel one they run at once, with
// identical results, because each charges its own disk (each ACE query and
// each permuted-file scan a clock forked for it).
func (wb *Workbench) runChains(chains ...func() error) error {
	workers := 1
	if wb.Cfg.workers() > 1 {
		workers = len(chains)
	}
	return par.ForEach(len(chains), workers, func(i int) error { return chains[i]() })
}

// runACE executes one ACE Tree query opened with opts, recording y of the
// stream after every leaf retrieval, until the elapsed simulated time
// exceeds limit or the stream completes. The figures price the published
// algorithm (ReadEveryLeaf: no key-sketch skip, no drain pass); Figures
// 11-14 plot the system's own read path, the zero options, beside it. The
// query is charged to a clock forked for it: it runs as if alone on the
// disk, whatever ran before it or beside it.
func (wb *Workbench) runACE(q record.Box, limit time.Duration, opts core.StreamOptions, y func(*core.Stream) float64) (curve, error) {
	ck := wb.AceSim.Fork()
	var c curve
	stream, err := wb.Ace.WithClock(ck).QueryWithOptions(q, opts)
	if err != nil {
		return c, err
	}
	t0 := ck.Now()
	c.add(0, 0)
	for !stream.Done() {
		if ck.Now()-t0 >= limit {
			break
		}
		if _, err := stream.NextLeaf(); err == io.EOF {
			break
		} else if err != nil {
			return c, err
		}
		c.add(ck.Now()-t0, y(stream))
	}
	return c, nil
}

// emittedPct is the sampling-rate figures' y: records emitted, as percent of
// the relation.
func (wb *Workbench) emittedPct(s *core.Stream) float64 {
	return float64(s.Emitted()) * (100 / float64(wb.Cfg.N))
}

// bufferedFrac is Figure 15's y: records buffered, as a fraction of the
// relation.
func (wb *Workbench) bufferedFrac(s *core.Stream) float64 {
	return float64(s.Buffered()) * (1 / float64(wb.Cfg.N))
}

// runBTree executes one Algorithm-1 sampling run over the ranked B+-Tree
// with a cold buffer pool, charging DrawOverhead of CPU per draw. B+-Tree
// runs share the pool and the draw rng, so they always form one
// sequential chain.
func (wb *Workbench) runBTree(q record.Range, limit time.Duration, rng *rand.Rand) (curve, error) {
	var c curve
	wb.BtPool.Reset()
	s, err := wb.Bt.NewSampler(q, rng)
	if err != nil {
		return c, err
	}
	t0 := wb.BtSim.Now()
	c.add(0, 0)
	scale := 100 / float64(wb.Cfg.N)
	var n float64
	for wb.BtSim.Now()-t0 < limit {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			return c, err
		}
		wb.BtSim.Advance(wb.drawOverhead())
		n++
		c.add(wb.BtSim.Now()-t0, n*scale)
	}
	return c, nil
}

// runRTree is runBTree for the two-dimensional R-Tree sampler.
func (wb *Workbench) runRTree(q record.Box, limit time.Duration, rng *rand.Rand) (curve, error) {
	var c curve
	wb.RtPool.Reset()
	s, err := wb.Rt.NewSampler(q, rng)
	if err != nil {
		return c, err
	}
	t0 := wb.RtSim.Now()
	c.add(0, 0)
	scale := 100 / float64(wb.Cfg.N)
	var n float64
	attempts := int64(0)
	for wb.RtSim.Now()-t0 < limit {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			return c, err
		}
		// Every descent attempt (including rejected ones) walks root to
		// leaf, so CPU is charged per attempt, not per returned sample.
		wb.RtSim.Advance(time.Duration(s.Attempts()-attempts) * wb.drawOverhead())
		attempts = s.Attempts()
		n++
		c.add(wb.RtSim.Now()-t0, n*scale)
	}
	return c, nil
}

// runPerm executes one scan of the randomly permuted file, recording each
// matching record against a clock forked for the scan, as runACE does.
func (wb *Workbench) runPerm(q record.Box, limit time.Duration) (curve, error) {
	ck := wb.PermSim.Fork()
	var c curve
	sc := wb.Perm.OnClock(ck).Query(q)
	t0 := ck.Now()
	c.add(0, 0)
	scale := 100 / float64(wb.Cfg.N)
	var cnt float64
	for ck.Now()-t0 < limit {
		if _, err := sc.Next(); err == io.EOF {
			break
		} else if err != nil {
			return c, err
		}
		cnt++
		c.add(ck.Now()-t0, cnt*scale)
	}
	return c, nil
}

func (wb *Workbench) drawOverhead() time.Duration {
	if wb.DrawOverhead > 0 {
		return wb.DrawOverhead
	}
	return DefaultDrawOverhead
}
