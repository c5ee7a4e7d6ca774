package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"sampleview"
	"sampleview/internal/record"
	"sampleview/internal/shard"
	"sampleview/internal/workload"
)

// Fixed inputs shared by every workload. Only the query seed is an
// argument; the relation is always the same bytes.
const (
	dataSeed    = 2006
	clients     = 2
	budget      = 5000 // samples a read op pulls before closing
	ttfMark     = 1000 // the sample whose arrival ttf1000 times
	pullBatch   = 256  // records per pull, local and wire alike
	opTimeout   = 10 * time.Second
	workloadCap = 120 * time.Second
	shardK      = 4
	replicas    = 2
	batchInsert = 128 // inserts per write batch
	batchDelete = 64  // own records every third batch tombstones
	flushEvery  = 4096
	steadyRate  = 32 // open-loop write batches per second
	workRoot    = ".svsuite_work"
)

// selectivities is the paper's query mix, cycled per op.
var selectivities = [3]float64{0.0025, 0.025, 0.25}

// scale sizes a run. fullScale is the benchmark; smokeScale is what
// suite_test.go runs so the whole suite finishes in seconds.
type scale struct {
	records      int
	digestOps    int // ops per client every run completes and digests, whatever the clock says
	maxOps       int // per-client cap on ops (0 = until the deadline)
	burstBatches int
	setupReps    int // set-ups timed per run; setup_s is their median
	ladderOps    int // ops per reader the seam ladder replays
}

var (
	fullScale  = scale{records: 1_000_000, digestOps: 12, burstBatches: 4000, setupReps: 3, ladderOps: 30}
	smokeScale = scale{records: 20_000, digestOps: 6, maxOps: 10, burstBatches: 40, setupReps: 1, ladderOps: 3}
)

// relation is the harness's own model of the data: enough to say, without
// asking the system under test, how many records a predicate matches and
// which bucket of it each one falls in.
type relation struct {
	recs   []record.Record // dropped once the view is built
	sorted []int64         // every key, ascending
}

func generate(n int) *relation {
	g := workload.NewGenerator(workload.Uniform, dataSeed)
	rel := &relation{recs: make([]record.Record, n), sorted: make([]int64, n)}
	for i := range rel.recs {
		rel.recs[i] = g.Next()
		rel.sorted[i] = rel.recs[i].Key
	}
	sort.Slice(rel.sorted, func(i, j int) bool { return rel.sorted[i] < rel.sorted[j] })
	return rel
}

// countIn returns how many keys of the sorted slice fall in [lo, hi].
func countIn(sorted []int64, lo, hi int64) int {
	a := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
	b := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi })
	return b - a
}

// matching returns how many records of the relation q matches: the least a
// stream over q must be able to deliver, whatever is inserted beside them.
func (r *relation) matching(q record.Box) int {
	return countIn(r.sorted, q.Dim(0).Lo, q.Dim(0).Hi)
}

func viewOptions() sampleview.Options {
	return sampleview.Options{Seed: dataSeed, MemPages: 2048, BuildParallelism: 2}
}

func shardOptions() shard.Options {
	return shard.Options{K: shardK, Partition: shard.HashBySeq, Seed: dataSeed, MemPages: 2048, Parallelism: 2}
}

// medianSetup runs setup reps times and returns the last environment built
// plus the median wall time of one set-up. Earlier environments are torn
// down and their files removed, so the run itself starts from exactly what
// one set-up leaves behind. Each set-up starts from a collected heap, so the
// garbage of the one before does not decide when this one pays for a
// collection. Set-up memory is kept apart from serving memory: once the last
// set-up is done its peak is read, the heap is collected and freed pages are
// returned, so the resident set the passes sample is what serving needs.
func medianSetup[E interface{ close() }](sc scale, dir string, setup func(dir string) (E, error)) (E, setupCost, error) {
	var env E
	times := make([]time.Duration, 0, sc.setupReps)
	for rep := 0; rep < sc.setupReps; rep++ {
		sub := filepath.Join(dir, fmt.Sprintf("env%d", rep))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return env, setupCost{}, err
		}
		runtime.GC()
		start := time.Now()
		e, err := setup(sub)
		if err != nil {
			return env, setupCost{}, err
		}
		times = append(times, time.Since(start))
		if rep < sc.setupReps-1 {
			e.close()
			if err := os.RemoveAll(sub); err != nil {
				return env, setupCost{}, err
			}
			continue
		}
		env = e
	}
	cost := setupCost{wall: percentile(times, 0.5), rssPeakMiB: statusMiB("VmHWM")}
	debug.FreeOSMemory() // collects first
	return env, cost, nil
}

// setupCost is what the set-up phase cost: the median wall time of one
// set-up and the process's peak RSS over all of them.
type setupCost struct {
	wall       time.Duration
	rssPeakMiB float64
}

func (c setupCost) report(m metricSet) {
	m["setup_s"] = c.wall.Seconds()
	m["setup.rss_peak_mb"] = c.rssPeakMiB
}

// linkDir gives the new directory dst a hard link to every regular file of
// src: a second replica over the same bytes. The replicas only read, and a
// real copy made set-up bimodal on the sandbox (writing 135 MB of fresh page
// cache took 0.05 s or 0.3-0.7 s, half the time each), which the median of
// three set-ups turned into a coin flip between two values a third apart.
func linkDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}
