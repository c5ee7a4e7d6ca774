package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"sampleview"
	"sampleview/internal/core"
	"sampleview/internal/interleave"
	"sampleview/internal/iosim"
	"sampleview/internal/lsm"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/shard"
)

// The seam ladder attributes cost to the layers below sampleview, which
// expose no seam a wrapper could time. It replays a fixed prefix of every
// client's op list against each layer's public API in isolation:
//
//	pagefile   File.ReadPayload over as many data pages as the core rung read
//	+record    the same reads, each page decoded with record.AppendBatch
//	+core      core.Open / Tree.WithClock(fork).Query / Stream.NextBatch
//	+lsm       lsm.NewView(...).QueryClocked / Stream.Next   (ingest-mixed)
//	+top       View.Query / Stream.Sample, or shard.View.QuerySeeded
//
// Every rung is run by as many goroutines at once as the workload has
// readers, each on its own client's ops, and a rung's cost is the sum of its
// goroutines' elapsed times: client-seconds under the same contention for
// cores and page-cache bandwidth the workload saw, which is also the unit
// the traced pass's spans add up to. A layer's self cost is its rung minus
// the rung beneath, per sample the top rung delivered. The two rungs below
// core are approximations — they read the same number of pages, not the same
// pages — so the closure ratio (top rung over the traced pass's own time per
// sample inside the same calls) says how far the attribution can be trusted.

// runRung runs f once per client, all at once, and returns the sum of the
// clients' elapsed times.
func runRung(n int, f func(client int) error) (time.Duration, error) {
	var wg sync.WaitGroup
	took := make([]time.Duration, n)
	errs := make([]error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			errs[c] = f(c)
			took[c] = time.Since(start)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return sumDur(took), nil
}

// ladder is the state the rungs share: per client and op, what the rung
// above learned that sizes the rung below.
type ladder struct {
	ops     [][]opSpec
	perOp   [][]int   // samples the top rung delivered
	pages   [][]int64 // pages the core rung read
	samples int64

	top, core, read, decode time.Duration
	opens                   []time.Duration // core Query calls
	emitted, buffered       int64
	mu                      sync.Mutex // guards opens, emitted, buffered while a rung runs
}

func newLadder(ops [][]opSpec) *ladder {
	l := &ladder{ops: ops, perOp: make([][]int, len(ops)), pages: make([][]int64, len(ops))}
	for c := range ops {
		l.perOp[c] = make([]int, len(ops[c]))
		l.pages[c] = make([]int64, len(ops[c]))
	}
	return l
}

// sampleAll pulls an op's samples the way the workload's clients do: in
// pullBatch pieces until the budget or a short batch.
func sampleAll(sample func(int) ([]record.Record, error)) (int, error) {
	n := 0
	for n < budget {
		recs, err := sample(pullBatch)
		if err != nil {
			return n, err
		}
		n += len(recs)
		if len(recs) < pullBatch {
			break
		}
	}
	return n, nil
}

// topRung runs the top rung: open gives each op its stream's Sample and
// Close.
func (l *ladder) topRung(open func(client, i int, o opSpec) (func(int) ([]record.Record, error), func() error, error)) error {
	var err error
	l.top, err = runRung(len(l.ops), func(c int) error {
		for i, o := range l.ops[c] {
			sample, closeStream, err := open(c, i, o)
			if err != nil {
				return err
			}
			n, err := sampleAll(sample)
			closeStream()
			if err != nil {
				return err
			}
			l.perOp[c][i] = n
		}
		return nil
	})
	for c := range l.perOp {
		for _, n := range l.perOp[c] {
			l.samples += int64(n)
		}
	}
	return err
}

// coreRung runs Query plus NextBatch per op on tree until the op has
// delivered a share-th of what the top rung delivered for it, adding its
// time, pages and counters to the ladder's.
func (l *ladder) coreRung(tree *core.Tree, sim *iosim.Sim, share int) error {
	took, err := runRung(len(l.ops), func(c int) error {
		var opens []time.Duration
		var emitted, buffered int64
		for i, o := range l.ops[c] {
			ck := sim.Fork()
			t0 := time.Now()
			st, err := tree.WithClock(ck).Query(o.q)
			if err != nil {
				return err
			}
			opens = append(opens, time.Since(t0))
			for n := 0; n < l.perOp[c][i]/share; {
				b, err := st.NextBatch()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				n += len(b)
			}
			l.pages[c][i] += ck.Counters().Reads()
			emitted += st.Emitted()
			buffered += int64(st.Buffered())
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		l.opens = append(l.opens, opens...)
		l.emitted += emitted
		l.buffered += buffered
		return nil
	})
	l.core += took
	if err != nil {
		return fmt.Errorf("core rung: %w", err)
	}
	return nil
}

// pageRungs runs the pagefile and record rungs over f: for each op, as many
// data pages as the core rung read, spread over the data region.
func (l *ladder) pageRungs(f *pagefile.File, dataPages int64) (pages int64, err error) {
	dataStart := f.NumPages() - dataPages
	perPage := f.PageSize() / record.Size
	const stride = 7919 // prime: consecutive reads land far apart, as stabs do
	walk := func(decodeToo bool) (time.Duration, error) {
		return runRung(len(l.ops), func(c int) error {
			buf := f.PageBuf()
			defer f.PutPageBuf(buf)
			var flat []record.Record
			for i, n := range l.pages[c] {
				at := int64(c*len(l.pages[c])+i) * 104729
				for j := int64(0); j < n; j++ {
					at = (at + stride) % dataPages
					payload, err := f.ReadPayload(dataStart+at, buf)
					if err != nil {
						return err
					}
					if decodeToo {
						flat = record.AppendBatch(flat[:0], payload, perPage)
					}
				}
			}
			return nil
		})
	}
	for c := range l.pages {
		for _, n := range l.pages[c] {
			pages += n
		}
	}
	if l.read, err = walk(false); err != nil {
		return 0, fmt.Errorf("pagefile rung: %w", err)
	}
	if l.decode, err = walk(true); err != nil {
		return 0, fmt.Errorf("record rung: %w", err)
	}
	return pages, nil
}

// setBelowTop fills the pagefile, record and core metrics from their rungs.
func (l *ladder) setBelowTop(m metricSet, pages int64, perPage int) {
	s := float64(l.samples)
	m["pagefile.read_us_per_page"] = ratio(us(l.read), float64(pages))
	m["pagefile.self_ns_per_sample"] = ratio(float64(l.read), s)
	m["record.decode_ns_per_rec"] = ratio(float64(l.decode-l.read), float64(pages)*float64(perPage))
	m["record.self_ns_per_sample"] = ratio(float64(l.decode-l.read), s)
	m["core.self_ns_per_sample"] = ratio(float64(l.core-l.decode), s)
	m["core.open_us_p50"] = us(percentile(l.opens, 0.5))
	m["core.emit_ratio"] = ratio(float64(l.emitted), float64(l.emitted+l.buffered))
}

func (l *ladder) setClosure(m metricSet, measured float64) {
	m["ladder.closure_ratio"] = ratio(ratio(float64(l.top), float64(l.samples)), measured)
}

// ladderUnsharded runs the ladder for a workload whose top layer is the root
// view v stored at path. measured is the traced pass's own time per sample
// inside that top layer.
func ladderUnsharded(path string, v *sampleview.View, ops [][]opSpec, withLSM bool, m metricSet, measured float64) error {
	l := newLadder(ops)
	err := l.topRung(func(_, _ int, o opSpec) (func(int) ([]record.Record, error), func() error, error) {
		s, err := v.Query(o.q)
		if err != nil {
			return nil, nil, err
		}
		return s.Sample, s.Close, nil
	})
	if err != nil {
		return fmt.Errorf("sampleview rung: %w", err)
	}

	sim := iosim.New(iosim.DefaultModel())
	f, err := pagefile.OpenWith(sim, path, pagefile.OpenOptions{})
	if err != nil {
		return fmt.Errorf("pagefile rung: %w", err)
	}
	defer f.Close()
	tree, err := core.Open(f)
	if err != nil {
		return fmt.Errorf("core rung: %w", err)
	}
	if err := l.coreRung(tree, sim, 1); err != nil {
		return err
	}
	pages, err := l.pageRungs(f, tree.DataPages())
	if err != nil {
		return err
	}
	l.setBelowTop(m, pages, f.PageSize()/record.Size)

	below := l.core
	if withLSM {
		store, err := lsm.OpenStore(sim, path)
		if err != nil {
			return fmt.Errorf("lsm rung: %w", err)
		}
		defer store.Close()
		lv := lsm.NewView(tree, store)
		var gathers []time.Duration
		var gatherPages int64
		lsmT, err := runRung(len(ops), func(c int) error {
			for i, o := range ops[c] {
				ck := sim.Fork()
				t0 := time.Now()
				ls, err := lv.QueryClocked(ck, o.q, rand.New(rand.NewPCG(uint64(c)<<32|uint64(i), dataSeed)))
				if err != nil {
					return err
				}
				took, read := time.Since(t0), ck.Counters().Reads()
				l.mu.Lock()
				gathers = append(gathers, took)
				gatherPages += read
				l.mu.Unlock()
				for n := 0; n < l.perOp[c][i]; n++ {
					if _, err := ls.Next(); err == io.EOF {
						break
					} else if err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("lsm rung: %w", err)
		}
		m["lsm.open_gather_ms_p50"] = ms(percentile(gathers, 0.5))
		m["lsm.gather_pages_per_open"] = ratio(float64(gatherPages), float64(len(gathers)))
		m["lsm.merge_self_ns_per_sample"] = ratio(float64(lsmT-l.core), float64(l.samples))
		below = lsmT
	}
	m["sampleview.self_ns_per_sample"] = ratio(float64(l.top-below), float64(l.samples))
	l.setClosure(m, measured)
	return nil
}

// ladderSharded runs the ladder for the sharded replica sv stored in dir.
// The core rung opens the K shard files on its own and pulls a K-th of each
// op's samples from every tree, which is the work the merged stream asks of
// them; pagefile and record are priced on shard 0's file for the pages all K
// core rungs read.
func ladderSharded(dir string, sv *shard.View, ops [][]opSpec, m metricSet, measured float64) error {
	l := newLadder(ops)
	model := iosim.DefaultModel()
	var serial, merged time.Duration
	err := l.topRung(func(c, i int, o opSpec) (func(int) ([]record.Record, error), func() error, error) {
		s, err := sv.QuerySeeded(o.q, uint64(c)<<32|uint64(i))
		if err != nil {
			return nil, nil, err
		}
		return s.Sample, func() error {
			st := s.Stats()
			l.mu.Lock()
			serial += time.Duration(st.Counters.RandomReads)*model.RandomRead + time.Duration(st.Counters.SequentialReads)*model.SequentialRead
			merged += st.SimTime
			l.mu.Unlock()
			return s.Close()
		}, nil
	})
	if err != nil {
		return fmt.Errorf("shard rung: %w", err)
	}
	m["shard.sim_speedup"] = ratio(float64(serial), float64(merged))

	var shard0 *pagefile.File
	var dataPages int64
	for k := 0; k < sv.K(); k++ {
		sim := iosim.New(model)
		f, err := pagefile.OpenWith(sim, filepath.Join(dir, shard.ShardFile(k)), pagefile.OpenOptions{})
		if err != nil {
			return fmt.Errorf("pagefile rung: %w", err)
		}
		defer f.Close()
		tree, err := core.Open(f)
		if err != nil {
			return fmt.Errorf("core rung: %w", err)
		}
		if k == 0 {
			shard0, dataPages = f, tree.DataPages()
		}
		if err := l.coreRung(tree, sim, sv.K()); err != nil {
			return err
		}
	}
	pages, err := l.pageRungs(shard0, dataPages)
	if err != nil {
		return err
	}
	l.setBelowTop(m, pages, shard0.PageSize()/record.Size)
	m["shard.self_ns_per_sample"] = ratio(float64(l.top-l.core), float64(l.samples))
	l.setClosure(m, measured)
	return nil
}

// ladderOps returns the first n ops of each of the workload's readers.
func ladderOps(seed uint64, readers, n int) [][]opSpec {
	ops := make([][]opSpec, readers)
	for c := range ops {
		ops[c] = opList(seed, c, n)
	}
	return ops
}

// interleavePickNs prices one Merger.Pick (plus its Deduct) over k equal
// sources.
func interleavePickNs(k int) float64 {
	const picks = 1 << 20
	rng := rand.New(rand.NewPCG(dataSeed, uint64(k)))
	remaining := make([]float64, k)
	for i := range remaining {
		remaining[i] = picks
	}
	mg := interleave.New(rng, remaining)
	start := time.Now()
	for i := 0; i < picks; i++ {
		j, ok := mg.Pick()
		if !ok {
			break
		}
		mg.Deduct(j)
	}
	return float64(time.Since(start)) / picks
}
