package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// suiteDoc is the merged document -workload all writes and -compare reads:
// the first point, and every later point, of the BENCH_<pr>.json trajectory.
type suiteDoc struct {
	Env       suiteEnv               `json:"env"`
	Workloads map[string]workloadDoc `json:"workloads"`
}

type suiteEnv struct {
	Nproc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	Seconds   float64 `json:"seconds"`
	Runs      int     `json:"runs"`
	FirstSeed uint64  `json:"first_seed"`
}

// workloadDoc summarises one workload: each end-to-end metric over the
// untraced runs, the per-layer metrics of the one traced run.
type workloadDoc struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]summary     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// runChild runs one workload in a child process — a fresh heap, fresh
// listeners, its own peak-RSS — and decodes the last line it prints.
func runChild(name string, seed uint64, seconds float64, trace bool) (*output, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(os.Args[0], "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var doc output
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s seed %d: last output line is not a result: %w", name, seed, err)
	}
	return &doc, nil
}

// runAll runs the four workloads in sequence, each run in a child process,
// and merges what they print into one document.
func runAll(seed uint64, seconds float64, runs int, out, commit string) int {
	doc := suiteDoc{
		Env: suiteEnv{Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit,
			Seconds: seconds, Runs: runs, FirstSeed: seed},
		Workloads: map[string]workloadDoc{},
	}
	code := 0
	for _, w := range workloads {
		wd := workloadDoc{Correct: true, EndToEnd: map[string]summary{}}
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			res, err := runChild(w.name, seed+uint64(r), seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "svsuite: %v\n", err)
				return 1
			}
			wd.Correct = wd.Correct && res.Correct
			wd.Attempted += res.Attempted
			wd.Failed += res.Failed
			for name, mv := range res.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		for _, d := range endToEnd {
			q1, q3 := quartiles(values[d.Name])
			wd.EndToEnd[d.Name] = summary{Unit: d.Unit, Median: medianFloat(values[d.Name]), Q1: q1, Q3: q3, Values: values[d.Name]}
		}
		traced, err := runChild(w.name, seed, seconds, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svsuite: %v\n", err)
			return 1
		}
		wd.Correct = wd.Correct && traced.Correct
		wd.PerLayer = traced.Metrics
		if !wd.Correct || wd.Failed > 0 {
			code = 1
		}
		doc.Workloads[w.name] = wd
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "svsuite: %v\n", err)
		return 1
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
		return code
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "svsuite: %v\n", err)
		return 1
	}
	return code
}

func readSuiteDoc(path string) (*suiteDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc suiteDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// verdict judges one metric of one workload, b against base a, by the rule
// the benchmark fixes: worse when b's median is beyond the bound on the bad
// side; unresolved when it is not but the run-to-run spread of either side is
// wider than the bound — unless every run of b reads better than every run
// of a; otherwise ok.
func verdict(d metricDef, a, b summary) (string, float64) {
	r := ratio(b.Median, a.Median)
	worse := r > 1+d.Bound
	if d.Better == "higher" {
		worse = r < 1-d.Bound
	}
	if worse {
		return "worse", r
	}
	if a.spread() > d.Bound || b.spread() > d.Bound {
		if !allBetter(d, a.Values, b.Values) {
			return "unresolved", r
		}
	}
	return "ok", r
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their ratio with its base, the bound and the verdict. It returns 1 when
// any metric is worse or the second document failed a larger share of ops.
func compareFiles(pathA, pathB string) int {
	a, err := readSuiteDoc(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svsuite: %v\n", err)
		return 2
	}
	b, err := readSuiteDoc(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svsuite: %v\n", err)
		return 2
	}
	fmt.Printf("base A = %s (%s, %d runs)\n     B = %s (%s, %d runs)\n", pathA, a.Env.Commit, a.Env.Runs, pathB, b.Env.Commit, b.Env.Runs)
	fmt.Printf("%-14s %-22s %14s %14s %10s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		wa, okA := a.Workloads[w.name]
		wb, okB := b.Workloads[w.name]
		if !okA || !okB {
			fmt.Printf("%-14s missing from %s\n", w.name, map[bool]string{true: pathB, false: pathA}[okA])
			code = 1
			continue
		}
		for _, d := range endToEnd {
			v, r := verdict(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name])
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %10.4f %7.2f  %s\n", w.name, d.Name+" ("+d.Unit+")",
				wa.EndToEnd[d.Name].Median, wb.EndToEnd[d.Name].Median, r, d.Bound, v)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		v := "ok"
		if fb > fa || (wa.Correct && !wb.Correct) {
			v = "worse"
			code = 1
		}
		fmt.Printf("%-14s %-22s %14.6f %14.6f %10s %7s  %s\n", w.name, "failed_ops_share", fa, fb, "-", "0", v)
	}
	return code
}
