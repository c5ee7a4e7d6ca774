package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sampleview"
	"sampleview/internal/iosim"
	"sampleview/internal/memview"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// writer is the single ingest client and the harness's model of what it was
// acked for. Batch b inserts batchInsert fresh records; every third batch
// then tombstones the first batchDelete of its own records; Commit acks the
// batch; every flushEvery inserts the writer flushes and compacts the delta
// ladder until no merge is due, as svserve's maintenance would.
type writer struct {
	v    *sampleview.View
	gen  *workload.Generator
	base uint64 // first Seq the writer owns: the relation's record count
	tr   *tracer

	batches  int
	keys     []int64 // key of the i-th inserted record (Seq base+i)
	deleted  []bool
	inserts  int64 // acked
	deletes  int64 // acked
	sinceFl  int
	flushes  []time.Duration
	compacts []time.Duration
	commits  []time.Duration
	applies  []time.Duration // per batch: the Insert/Delete calls, before Commit
}

// batch applies and commits one batch. It returns when the batch is acked,
// before any maintenance the batch made due.
func (w *writer) batch() error {
	id := int64(1)<<40 | int64(w.batches)
	start := time.Now()
	first := len(w.keys)
	recs := make([]record.Record, batchInsert)
	for i := range recs {
		recs[i] = w.gen.Next()
		recs[i].Seq = w.base + uint64(first+i)
		if err := w.v.Insert(recs[i]); err != nil {
			return fmt.Errorf("insert seq %d: %w", recs[i].Seq, err)
		}
		w.keys = append(w.keys, recs[i].Key)
		w.deleted = append(w.deleted, false)
	}
	ndel := 0
	if w.batches%3 == 2 {
		ndel = batchDelete
		for i := 0; i < ndel; i++ {
			if err := w.v.Delete(recs[i]); err != nil {
				return fmt.Errorf("delete seq %d: %w", recs[i].Seq, err)
			}
			w.deleted[first+i] = true
		}
	}
	applied := time.Now()
	if err := w.v.Commit(); err != nil {
		return fmt.Errorf("commit batch %d: %w", w.batches, err)
	}
	acked := time.Now()
	w.applies = append(w.applies, applied.Sub(start))
	w.commits = append(w.commits, acked.Sub(applied))
	w.tr.add("ingest.apply", id, 0, start, applied)
	w.tr.add("wal.commit", id, 0, applied, acked)
	w.inserts += batchInsert
	w.deletes += int64(ndel)
	w.sinceFl += batchInsert
	w.batches++
	return nil
}

// maintain runs the flush and compaction the last batch made due.
func (w *writer) maintain() error {
	if w.sinceFl < flushEvery {
		return nil
	}
	w.sinceFl = 0
	id := int64(1)<<40 | int64(w.batches)
	t0 := time.Now()
	if err := w.v.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	t1 := time.Now()
	w.flushes = append(w.flushes, t1.Sub(t0))
	w.tr.add("lsm.flush", id, 0, t0, t1)
	for {
		c0 := time.Now()
		ran, err := w.v.CompactDeltas(false)
		if err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		if !ran {
			return nil
		}
		c1 := time.Now()
		w.compacts = append(w.compacts, c1.Sub(c0))
		w.tr.add("lsm.compact", id, 0, c0, c1)
	}
}

// maintBusy is the wall time spent in flushes and compactions so far.
func (w *writer) maintBusy() time.Duration { return sumDur(w.flushes) + sumDur(w.compacts) }

// steady runs the writer open-loop at steadyRate batches per second until
// the deadline: batch i is due at start + i/steadyRate whatever happened to
// the batches before it, its ack is timed from that due instant, and how
// late the generator itself started each batch is kept beside it.
func (w *writer) steady(start, deadline time.Time) (acks, late []time.Duration, err error) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / steadyRate)
		if due.After(deadline) {
			return acks, late, nil
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(due))
		if err := w.batch(); err != nil {
			return acks, late, err
		}
		acks = append(acks, time.Since(due))
		if err := w.maintain(); err != nil {
			return acks, late, err
		}
	}
}

// aliveSorted returns the sorted keys of the inserted records still alive.
func (w *writer) aliveSorted() []int64 {
	out := make([]int64, 0, len(w.keys))
	for i, k := range w.keys {
		if !w.deleted[i] {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ingestOptions() sampleview.Options {
	o := viewOptions()
	o.WAL = true
	return o
}

func runIngestMixed(cfg runConfig) (*runResult, error) {
	env, setup, err := medianSetup(cfg.sc, cfg.workDir, func(dir string) (*localEnv, error) {
		return setupLocal(dir, cfg.sc, ingestOptions(), false, nil)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := newResult()
	setup.report(res.metrics)
	res.metrics["core.build_s"] = env.build.Seconds()
	g := workload.NewGenerator(workload.Uniform, dataSeed)
	baseKeys := make([]int64, cfg.sc.records) // key by Seq, for the readback model
	for i := range baseKeys {
		baseKeys[i] = g.Next().Key
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	w := &writer{
		v:    env.v,
		gen:  workload.NewGenerator(workload.Uniform, cfg.seed^0x196e57),
		base: uint64(cfg.sc.records),
		tr:   tr,
	}
	ioBefore := env.v.Stats().Counters

	// Burst: the writer alone, closed loop.
	var werr error
	burst := measure(func(*atomic.Int64) {
		for b := 0; b < cfg.sc.burstBatches && werr == nil; b++ {
			if werr = w.batch(); werr == nil {
				werr = w.maintain()
			}
		}
	})
	if werr != nil {
		return nil, fmt.Errorf("burst: %w", werr)
	}
	res.metrics["sampleview.ingest_acked_per_s"] = ratio(float64(w.inserts), burst.wall.Seconds())

	// Steady: the writer open-loop beside one closed-loop reader. A traced
	// run does it twice, untraced then traced, for the tracing overhead.
	// The steady phase has one reader, so its own ttf1000 is already free of
	// reader-behind-reader queueing and the whole window goes to it.
	latencyWin, untracedWin, tracedWin := passWindows(cfg)
	untracedWin += latencyWin
	maxSeq := cfg.sc.records + (cfg.sc.burstBatches+(int(cfg.window.Seconds())+30)*steadyRate)*batchInsert
	steady := func(window time.Duration, ptr *tracer) (*passResult, []time.Duration, []time.Duration, error) {
		p := &passResult{}
		w.tr = ptr
		var acks, late []time.Duration
		var serr error
		sm := &localSampler{v: env.v}
		var runs []clientRun
		p.ph = measure(func(delivered *atomic.Int64) {
			var wg sync.WaitGroup
			start := time.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				acks, late, serr = w.steady(start, start.Add(window))
			}()
			runs = runClosedLoop(1, budget, cfg.seed, cfg.sc, window, env.rel.matching, maxSeq,
				probe{ptr, "sampleview.open", "sampleview.sample", delivered}, func(int) (sampler, func(), error) { return sm, func() {}, nil })
			wg.Wait()
		})
		p.simIO, p.reads = sm.sim, sm.reads
		p.totals = totalReads(runs, cfg.sc)
		return p, acks, late, serr
	}
	maintBefore := w.maintBusy()
	base, acks, late, err := steady(untracedWin, nil)
	if err != nil {
		return nil, fmt.Errorf("steady: %w", err)
	}
	res.setReadMetrics(base, nil)
	res.attempted += len(acks)
	res.metrics["sampleview.write_ack_ms_p50"] = ms(percentile(acks, 0.5))
	res.metrics["lsm.write_ack_ms_p95"] = ms(percentile(acks, 0.95))
	res.metrics["sampleview.generator_late_ms_p95"] = ms(percentile(late, 0.95))
	res.metrics["lsm.ttf1000_ms_p95"] = ms(percentile(base.totals.ttf, 0.95))
	res.metrics["lsm.maint_busy_share"] = ratio(float64(w.maintBusy()-maintBefore), float64(base.ph.wall))
	ops := base.totals.ops
	var tracedNsPerSample float64
	if cfg.trace {
		traced, _, _, err := steady(tracedWin, tr)
		if err != nil {
			return nil, fmt.Errorf("traced steady: %w", err)
		}
		tracedNsPerSample = traced.nsInLayer(tr, "sampleview.open", "sampleview.sample")
		res.setPageMetrics(traced)
		res.setTraceOverhead(base, traced, tr)
		res.metrics["sampleview.open_us_p50"] = us(percentile(tr.durations("sampleview.open"), 0.5))
		res.metrics["sampleview.ttf1000_ms_p95"] = ms(percentile(traced.totals.ttf, 0.95))
	}

	// Write-path accounting, before the view is closed and its counters go.
	ws := env.v.WriteStats()
	io := countersDelta(ioBefore, env.v.Stats().Counters)
	userBytes := float64(w.inserts+w.deletes) * record.Size
	pageSize := float64(iosim.DefaultModel().PageSize)
	res.metrics["sampleview.write_amp"] = ratio(float64(ws.WALBytes)+float64(io.Writes())*pageSize, userBytes)
	res.metrics["wal.bytes_per_user_byte"] = ratio(float64(ws.WALBytes), userBytes)
	res.metrics["wal.fsyncs_per_batch"] = ratio(float64(ws.WALFsyncs), float64(w.batches))
	res.metrics["wal.commit_us_p50"] = us(percentile(w.commits, 0.5))
	res.metrics["wal.commit_us_p95"] = us(percentile(w.commits, 0.95))
	res.metrics["lsm.flush_ms_p50"] = ms(percentile(w.flushes, 0.5))
	res.metrics["lsm.flush_ms_max"] = ms(percentile(w.flushes, 1))
	res.metrics["lsm.compact_ms_total"] = ms(sumDur(w.compacts))
	res.metrics["lsm.rewritten_bytes_per_user_byte"] = ratio(float64(io.Writes())*pageSize, userBytes)
	res.metrics["lsm.levels_at_end"] = float64(ws.DeltaLevels)
	res.metrics["lsm.delta_records_at_end"] = float64(ws.DeltaRecords)

	// Durability: close, reopen (WAL replay), and check the view against
	// the harness's own model of what was acked.
	if err := env.v.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	env.v = nil
	if env.v, err = sampleview.Open(env.path, ingestOptions()); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	res.attempted++
	if msg := w.readback(env.v, baseKeys, cfg); msg != "" {
		res.failed++
		res.incorrect("durable readback: %s", msg)
	}

	if cfg.trace {
		memNs := memviewNsPerRec(w)
		res.metrics["memview.insert_ns_per_rec"] = memNs
		res.metrics["wal.append_us_per_batch"] = meanUs(w.applies) - memNs*float64(batchInsert+batchDelete/3)/1000
		res.metrics["interleave.pick_ns"] = interleavePickNs(int(ws.DeltaLevels) + 2)
		if err := env.v.Flush(); err != nil {
			return nil, fmt.Errorf("flush before ladder: %w", err)
		}
		if err := ladderUnsharded(env.path, env.v, ladderOps(cfg.seed, 1, cfg.sc.ladderOps), true, res.metrics, tracedNsPerSample); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	live := int64(cfg.sc.records) + w.inserts - w.deletes
	res.finish(cfg, env.dir, live, ops, env.rel.sorted, w.aliveSorted())
	return res, nil
}

// readback checks the reopened view against the model: the record count, and
// one full stream over a 0.25% predicate, which must return exactly the
// model's set of Seqs. It returns "" when both hold.
func (w *writer) readback(v *sampleview.View, baseKeys []int64, cfg runConfig) string {
	want := int64(len(baseKeys)) + w.inserts - w.deletes
	if got := v.Count(); got != want {
		return fmt.Sprintf("Count() = %d, model has %d (base %d + %d inserts - %d deletes)", got, want, len(baseKeys), w.inserts, w.deletes)
	}
	q := workload.NewQueryGen(cfg.seed ^ 0xd00b).Range1D(selectivities[0])
	rng := q.Dim(0)
	model := make(map[uint64]struct{})
	for seq, k := range baseKeys {
		if rng.Contains(k) {
			model[uint64(seq)] = struct{}{}
		}
	}
	for i, k := range w.keys {
		if !w.deleted[i] && rng.Contains(k) {
			model[w.base+uint64(i)] = struct{}{}
		}
	}
	s, err := v.Query(q)
	if err != nil {
		return fmt.Sprintf("query %v: %v", q, err)
	}
	defer s.Close()
	n := 0
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Sprintf("stream over %v: %v", q, err)
		}
		if _, ok := model[rec.Seq]; !ok {
			return fmt.Sprintf("stream over %v returned seq %d, which the model does not hold (deleted, never acked, or repeated)", q, rec.Seq)
		}
		delete(model, rec.Seq)
		n++
	}
	if len(model) != 0 {
		return fmt.Sprintf("stream over %v ended after %d records; %d acked records are missing", q, n, len(model))
	}
	return ""
}

// memviewNsPerRec replays the writer's own insert/delete pattern against a
// bare memview.Buffer, sealed every flushEvery inserts as Flush would, and
// returns the cost per operation: the memview rung of the write ladder.
func memviewNsPerRec(w *writer) float64 {
	n := len(w.keys)
	if n > 64*flushEvery {
		n = 64 * flushEvery
	}
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: w.keys[i], Seq: w.base + uint64(i)}
	}
	ops := 0
	start := time.Now()
	buf := memview.New()
	for i := range recs {
		if i%flushEvery == 0 && i > 0 {
			buf.Seal()
			buf = memview.New()
		}
		if err := buf.Insert(recs[i]); err != nil {
			return 0
		}
		ops++
		if b := i / batchInsert; b%3 == 2 && i%batchInsert == batchInsert-1 {
			for j := i - batchInsert + 1; j < i-batchInsert+1+batchDelete; j++ {
				if err := buf.Delete(recs[j]); err != nil {
					return 0
				}
				ops++
			}
		}
	}
	return ratio(float64(time.Since(start)), float64(ops))
}
