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
// owns one competing method's whole query sequence; distinct chains charge
// distinct simulated disks, so they run inline and in order on a
// sequential workbench and concurrently on a parallel one with identical
// results.
func (wb *Workbench) runChains(chains ...func() error) error {
	if wb.Cfg.workers() <= 1 {
		for _, fn := range chains {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
	var g par.Group
	for _, fn := range chains {
		g.Go(fn)
	}
	return g.Wait()
}

// runACE executes one ACE Tree query, recording y of the stream after every
// leaf retrieval, until the elapsed simulated time exceeds limit or the
// stream completes. Every stab reads its leaf: the figures price the
// published algorithm, not the occupancy skip. On a parallel workbench the
// query is charged to a clock forked for it, so that several queries can
// stream from the shared tree concurrently.
func (wb *Workbench) runACE(q record.Box, limit time.Duration, y func(*core.Stream) float64) (curve, error) {
	tree, now := wb.Ace, wb.AceSim.Now
	if wb.Cfg.workers() > 1 {
		ck := wb.AceSim.Fork()
		tree, now = wb.Ace.WithClock(ck), ck.Now
	}
	var c curve
	stream, err := tree.QueryWithOptions(q, core.StreamOptions{ReadEveryLeaf: true})
	if err != nil {
		return c, err
	}
	t0 := now()
	c.add(0, 0)
	for !stream.Done() {
		if now()-t0 >= limit {
			break
		}
		if _, err := stream.NextLeaf(); err == io.EOF {
			break
		} else if err != nil {
			return c, err
		}
		c.add(now()-t0, y(stream))
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
// matching record against the sequential clock (a forked one on a parallel
// workbench).
func (wb *Workbench) runPerm(q record.Box, limit time.Duration) (curve, error) {
	pf, now := wb.Perm, wb.PermSim.Now
	if wb.Cfg.workers() > 1 {
		ck := wb.PermSim.Fork()
		pf, now = wb.Perm.OnClock(ck), ck.Now
	}
	var c curve
	sc := pf.Query(q)
	t0 := now()
	c.add(0, 0)
	scale := 100 / float64(wb.Cfg.N)
	var cnt float64
	for now()-t0 < limit {
		if _, err := sc.Next(); err == io.EOF {
			break
		} else if err != nil {
			return c, err
		}
		cnt++
		c.add(now()-t0, cnt*scale)
	}
	return c, nil
}

func (wb *Workbench) drawOverhead() time.Duration {
	if wb.DrawOverhead > 0 {
		return wb.DrawOverhead
	}
	return DefaultDrawOverhead
}
