package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sampleview"
	"sampleview/internal/iosim"
	"sampleview/internal/workload"
)

// wallSelectivities is the query mix the wall bench rotates through, and
// wallTarget the per-query online-sample budget whose wall-clock delivery
// time is the headline metric.
var wallSelectivities = []float64{0.0025, 0.025, 0.25}

const (
	wallTarget  = 1000 // time-to-first-N budget
	wallSamples = 5000 // total samples drawn per query (throughput metric)
	wallOps     = 4    // queries per worker goroutine
)

// wallConfig is one raw-I/O backend under test.
type wallConfig struct {
	name    string
	backend sampleview.BackendKind
}

func wallConfigs() []wallConfig {
	return []wallConfig{
		{"pread", sampleview.BackendPread},
		{"mmap", sampleview.BackendMmap},
	}
}

// wallResult aggregates one (config, parallelism) cell.
type wallResult struct {
	recsPerSec float64
	ttfP50     time.Duration
	simTTF     time.Duration // simulated TTF at this cell (identical across configs)
}

// runWallBench builds one view file on real disk and streams it through
// every backend at several parallelism levels,
// reporting wall-clock records/sec and time-to-first-1000 next to the
// simulated baseline, plus a byte-equality check of the sample prefix
// across configurations. The markdown report goes to out.
func runWallBench(n int64, seed uint64, pageSize int, out string) error {
	model := iosim.DefaultModel()
	if pageSize > 0 && pageSize != model.PageSize {
		model.SequentialRead = time.Duration(float64(model.SequentialRead) * float64(pageSize) / float64(model.PageSize))
		model.SequentialWrite = model.SequentialRead
		model.PageSize = pageSize
	}
	memPages := 16 << 20 / model.PageSize

	dir, err := os.MkdirTemp("", "svbench-wall-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "wall.view")

	gen := workload.NewGenerator(workload.Uniform, seed)
	recs := make([]sampleview.Record, n)
	for i := range recs {
		recs[i] = gen.Next()
	}
	buildStart := time.Now()
	v, err := sampleview.CreateFromSlice(path, recs, sampleview.Options{
		Seed: seed, DiskModel: model, MemPages: memPages,
	})
	if err != nil {
		return err
	}
	v.Close()
	fmt.Fprintf(os.Stderr, "svbench: wall view built in %v (%d records, %d B pages)\n",
		time.Since(buildStart).Round(time.Millisecond), n, model.PageSize)

	openOpts := func(c wallConfig) sampleview.Options {
		return sampleview.Options{Seed: seed, DiskModel: model, Backend: c.backend}
	}

	// Byte-equality gate: the same seeded query must deliver the identical
	// sample prefix whatever the backend — the fast path may only change the
	// wall clock.
	var refPrefix []sampleview.Record
	prefixOK := true
	for i, c := range wallConfigs() {
		prefix, err := wallPrefix(path, openOpts(c), seed)
		if err != nil {
			return fmt.Errorf("prefix check (%s): %w", c.name, err)
		}
		if i == 0 {
			refPrefix = prefix
			continue
		}
		if len(prefix) != len(refPrefix) {
			prefixOK = false
			continue
		}
		for j := range prefix {
			if prefix[j] != refPrefix[j] {
				prefixOK = false
				break
			}
		}
	}
	parallelisms := []int{1, 4, 16}
	results := make(map[string]map[int]wallResult)
	for _, c := range wallConfigs() {
		results[c.name] = make(map[int]wallResult)
		for _, p := range parallelisms {
			r, err := wallCell(path, openOpts(c), seed, p)
			if err != nil {
				return fmt.Errorf("%s par=%d: %w", c.name, p, err)
			}
			results[c.name][p] = r
			fmt.Fprintf(os.Stderr, "svbench: wall %-14s par=%-2d  %10.0f recs/s  ttf%d p50 %v\n",
				c.name, p, r.recsPerSec, wallTarget, r.ttfP50.Round(time.Microsecond))
		}
	}

	return writeWallReport(out, n, seed, model.PageSize, parallelisms, results, prefixOK, len(refPrefix))
}

// wallPrefix opens the view with the given options and collects the first
// 2*wallTarget samples of one fixed seeded query.
func wallPrefix(path string, opts sampleview.Options, seed uint64) ([]sampleview.Record, error) {
	v, err := sampleview.Open(path, opts)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	q := workload.NewQueryGen(seed).Range1D(0.025)
	s, err := v.Query(q)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Sample(2 * wallTarget)
}

// wallCell measures one (options, parallelism) cell: par workers each run
// wallOps seeded queries, drawing wallSamples records per query, on one
// shared view. Aggregate throughput is total records over the cell's wall
// time; TTF is the per-query wall time to the first wallTarget samples.
func wallCell(path string, opts sampleview.Options, seed uint64, par int) (wallResult, error) {
	v, err := sampleview.Open(path, opts)
	if err != nil {
		return wallResult{}, err
	}
	defer v.Close()

	var (
		mu      sync.Mutex
		ttfs    []time.Duration
		simTTFs []time.Duration
		total   int64
		firstE  error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qg := workload.NewQueryGen(seed + uint64(w)*7919)
			for op := 0; op < wallOps; op++ {
				q := qg.Range1D(wallSelectivities[op%len(wallSelectivities)])
				s, err := v.Query(q)
				if err == nil {
					opStart := time.Now()
					var first []sampleview.Record
					first, err = s.Sample(wallTarget)
					ttf := time.Since(opStart)
					simTTF := s.SimNow()
					var rest []sampleview.Record
					if err == nil {
						rest, err = s.Sample(wallSamples - wallTarget)
					}
					s.Close()
					if err == nil {
						mu.Lock()
						ttfs = append(ttfs, ttf)
						simTTFs = append(simTTFs, simTTF)
						total += int64(len(first) + len(rest))
						mu.Unlock()
					}
				}
				if err != nil {
					mu.Lock()
					if firstE == nil {
						firstE = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstE != nil {
		return wallResult{}, firstE
	}
	elapsed := time.Since(start)
	sort.Slice(ttfs, func(i, j int) bool { return ttfs[i] < ttfs[j] })
	sort.Slice(simTTFs, func(i, j int) bool { return simTTFs[i] < simTTFs[j] })
	return wallResult{
		recsPerSec: float64(total) / elapsed.Seconds(),
		ttfP50:     ttfs[len(ttfs)/2],
		simTTF:     simTTFs[len(simTTFs)/2],
	}, nil
}

// writeWallReport renders the results table to out as markdown.
func writeWallReport(out string, n int64, seed uint64, pageSize int, pars []int,
	results map[string]map[int]wallResult, prefixOK bool, prefixLen int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Real-I/O wall-clock benchmark\n\n")
	fmt.Fprintf(&b, "One view of %d records (%d B pages, seed %d) built on real disk, then streamed "+
		"through each raw-I/O backend. Every cell runs "+
		"the paper's selectivity mix (%v); records/sec is aggregate wall-clock throughput across "+
		"the cell's concurrent streams, and ttf-%d is the median wall time until one query's first "+
		"%d online samples. The simulated column is the same run's iosim time-to-first-%d — it is "+
		"identical across backends by construction, because the fast path never touches the "+
		"simulated clock.\n\n", n, pageSize, seed, wallSelectivities, wallTarget, wallTarget, wallTarget)
	for _, p := range pars {
		fmt.Fprintf(&b, "## Parallelism %d\n\n", p)
		fmt.Fprintf(&b, "| config | records/sec (wall) | ttf-%d p50 (wall) | ttf-%d p50 (simulated) |\n", wallTarget, wallTarget)
		fmt.Fprintf(&b, "|---|---|---|---|\n")
		for _, c := range wallConfigs() {
			r := results[c.name][p]
			fmt.Fprintf(&b, "| %s | %.0f | %v | %v |\n",
				c.name, r.recsPerSec, r.ttfP50.Round(time.Microsecond), r.simTTF.Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "\n")
	}
	if prefixOK {
		fmt.Fprintf(&b, "Stream-equality check: PASS — the first %d samples of the same seeded query "+
			"are byte-identical across every backend.\n", prefixLen)
	} else {
		fmt.Fprintf(&b, "Stream-equality check: **FAIL** — backends disagreed on the sample prefix.\n")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "svbench: wall report written to %s\n", out)
	if !prefixOK {
		return fmt.Errorf("stream output differs across backends")
	}
	return nil
}
