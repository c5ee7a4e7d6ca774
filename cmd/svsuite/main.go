// Command svsuite is the repository's benchmark: four fixed workloads over
// one fixed relation, each run in a fresh process that hosts every server
// and router it needs on loopback listeners, checks what comes back, and
// prints its metrics by name and unit.
//
//	go run ./cmd/svsuite --workload scan-local --seed 1 --seconds 12 --trace 0
//	go run ./cmd/svsuite --workload all --runs 5 --out BENCH.json
//	go run ./cmd/svsuite --compare A.json B.json
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Everything else
// (digest, notes on failures) goes to standard error. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// output is the one JSON object a workload run prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: scan-local, serve-wire, ingest-mixed, fleet-sharded, or all")
		seed     = flag.Uint64("seed", 1, "query seed (the data seed is fixed)")
		seconds  = flag.Float64("seconds", 12, "how long each workload measures")
		trace    = flag.String("trace", "0", "1 = traced run reporting per-layer metrics; 0 = untraced run reporting end-to-end metrics")
		compare  = flag.Bool("compare", false, "compare two result documents given as arguments (base first)")
		runs     = flag.Int("runs", 1, "with -workload all: untraced runs per workload (seeds seed..seed+runs-1), plus one traced run")
		out      = flag.String("out", "", "with -workload all: write the merged document here instead of standard output")
		commit   = flag.String("commit", "", "with -workload all: commit id recorded in the document")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "svsuite: -compare takes two files: the base document, then the one to judge")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *workload == "all":
		return runAll(*seed, *seconds, *runs, *out, *commit)
	}
	def := findWorkload(*workload)
	if def == nil || (*trace != "0" && *trace != "1") || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "svsuite: need -workload <name> (or all, or -compare A B), -trace 0|1 and -seconds > 0; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", w.name, w.why)
		}
		return 2
	}
	cfg := runConfig{
		workload: def.name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == "1",
		sc:       fullScale,
	}
	doc, code := runOne(def, cfg)
	if doc != nil {
		b, _ := json.Marshal(doc)
		fmt.Println(string(b))
	}
	return code
}

// runOne runs one workload in this process under the runner's hard limits:
// a private work directory removed on every exit path (return, signal,
// watchdog), and a cap on the whole run. It returns the document to print
// and the exit code.
func runOne(def *workloadDef, cfg runConfig) (*output, int) {
	work, err := filepath.Abs(filepath.Join(workRoot, fmt.Sprintf("%s-%d", def.name, os.Getpid())))
	if err != nil {
		fmt.Fprintf(os.Stderr, "svsuite: %v\n", err)
		return nil, 1
	}
	cleanup := func() {
		os.RemoveAll(work)
		os.Remove(filepath.Dir(work)) // the shared root goes once the last run has left it
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "svsuite: %v\n", err)
		return nil, 1
	}
	defer cleanup()
	cfg.workDir = work
	if cfg.trace {
		cfg.traceOut = filepath.Join(filepath.Dir(work), fmt.Sprintf("trace-%s-seed%d.json", def.name, cfg.seed))
	}

	// A run that outlives its cap or is interrupted still leaves nothing
	// behind: both paths remove the work directory before exiting.
	stop := make(chan struct{})
	defer close(stop)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	watchdog := time.NewTimer(workloadCap)
	defer watchdog.Stop()
	go func() {
		select {
		case <-stop:
			return
		case s := <-sigs:
			fmt.Fprintf(os.Stderr, "svsuite: %s: %v, aborting\n", def.name, s)
		case <-watchdog.C:
			fmt.Fprintf(os.Stderr, "svsuite: %s: exceeded the %v cap, aborting\n", def.name, workloadCap)
		}
		cleanup()
		os.Exit(3)
	}()

	res, err := def.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svsuite: %s: %v\n", def.name, err)
		return nil, 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(os.Stderr, "svsuite: %s seed=%d digest=%016x attempted=%d failed=%d correct=%v\n",
		def.name, cfg.seed, res.digest, res.attempted, res.failed, res.correct)
	for _, n := range res.notes {
		fmt.Fprintf(os.Stderr, "svsuite: %s: %s\n", def.name, n)
	}
	if cfg.traceOut != "" {
		fmt.Fprintf(os.Stderr, "svsuite: %s: spans written to %s\n", def.name, cfg.traceOut)
	}
	// A run that measured and checked exits 0 even when a check failed: the
	// verdict is the document's "correct" and "failed", which -workload all
	// and -compare turn into an exit code.
	return &output{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics.report(defs)}, 0
}
