package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"sampleview"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/shard"
	"sampleview/internal/workload"
)

// smoke runs one workload at smoke scale and fails the test on anything but
// a clean, correct run.
func smoke(t *testing.T, name string, seed uint64, trace bool) *runResult {
	t.Helper()
	def := findWorkload(name)
	if def == nil {
		t.Fatalf("no workload %q", name)
	}
	res, err := def.run(runConfig{
		workload: name, seed: seed, window: 300 * time.Millisecond, trace: trace,
		sc: smokeScale, workDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d notes=%v", name, res.correct, res.attempted, res.failed, res.notes)
	}
	return res
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		untraced := smoke(t, w.name, 1, false)
		for _, d := range endToEnd {
			v, ok := untraced.metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present=%v); it must be a positive number on every workload", w.name, d.Name, v, ok)
			}
		}
		traced := smoke(t, w.name, 1, true)
		for name, mv := range traced.metrics.report(perLayer) {
			if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v", w.name, name, mv.Value)
			}
		}
		// Each workload must move the layers it exists to exercise.
		for _, name := range map[string][]string{
			"scan-local":    {"pagefile.read_us_per_page", "record.decode_ns_per_rec", "core.open_us_p50", "sampleview.open_us_p50", "ladder.closure_ratio"},
			"serve-wire":    {"server.batch_rtt_us_p50", "server.wire_bytes_per_sample", "server.source_share", "core.open_us_p50"},
			"ingest-mixed":  {"sampleview.ingest_acked_per_s", "sampleview.write_ack_ms_p50", "sampleview.write_amp", "memview.insert_ns_per_rec", "wal.commit_us_p50", "wal.fsyncs_per_batch", "lsm.flush_ms_p50", "lsm.levels_at_end", "lsm.open_gather_ms_p50"},
			"fleet-sharded": {"fleet.batch_rtt_us_p50", "fleet.placement_skew", "shard.open_us_p50", "shard.sim_speedup", "interleave.pick_ns", "shard.build_s"},
		}[w.name] {
			if traced.metrics[name] == 0 {
				t.Errorf("%s: per-layer metric %s is 0; the workload exists to exercise that layer", w.name, name)
			}
		}
	}
}

func TestDigests(t *testing.T) {
	first := smoke(t, "scan-local", 1, false)
	local := first.digest
	if known := first.metrics["check.digest_known"]; known != 1 {
		t.Errorf("scan-local seed 1 gave digest %016x, which testdata/digests.json does not hold for %d records (check.digest_known = %v)", local, smokeScale.records, known)
	}
	if again := smoke(t, "scan-local", 1, false).digest; again != local {
		t.Errorf("scan-local seed 1 gave digest %016x, then %016x", local, again)
	}
	if wire := smoke(t, "serve-wire", 1, false).digest; wire != local {
		t.Errorf("serve-wire digest %016x differs from scan-local's %016x on the same ops", wire, local)
	}
	if other := smoke(t, "scan-local", 2, false).digest; other == local {
		t.Errorf("seeds 1 and 2 gave the same digest %016x", local)
	}
}

func TestTimedSourceKeepsOptionalSurfaces(t *testing.T) {
	g := workload.NewGenerator(workload.Uniform, dataSeed)
	recs := make([]record.Record, 2000)
	for i := range recs {
		recs[i] = g.Next()
	}
	v, err := sampleview.CreateFromSlice("", recs, sampleview.Options{Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	sv, err := shard.Create("", recs, shard.Options{K: 2, Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	tr := newTracer()
	tr.setEnabled(true)
	for name, inner := range map[string]server.ViewSource{"local": server.LocalSource(v), "sharded": server.ShardedSource(sv)} {
		var src server.ViewSource = timedSource{inner, tr}
		if _, ok := src.(server.WritableSource); !ok {
			t.Errorf("%s: wrapped source lost WritableSource; the server would refuse writes with CodeReadOnly", name)
		}
		seeded, ok := src.(server.SeededSource)
		if !ok {
			t.Fatalf("%s: wrapped source lost SeededSource; the router's seeded opens would be refused", name)
		}
		before := tr.count()
		st, err := seeded.OpenStreamSeeded(record.FullBox(1), 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := st.Sample(100)
		if err != nil || len(got) != 100 {
			t.Fatalf("%s: Sample(100) = %d records, %v", name, len(got), err)
		}
		st.Close()
		if tr.count() != before+2 {
			t.Errorf("%s: one open and one Sample recorded %d spans, want 2", name, tr.count()-before)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the acceptance driver reads,
// in step with the tables this program reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program; it must be in (0, 0.25]", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
			if len(d.Name) > 64 || len(d.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the 128 / 16 the contract allows", len(perLayer), len(endToEnd))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v; Python gives 1.0, 4.5", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	sum := func(vs ...float64) summary {
		q1, q3 := quartiles(vs)
		return summary{Median: medianFloat(vs), Q1: q1, Q3: q3, Values: vs}
	}
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lower, sum(100, 101, 102, 103, 104), sum(105, 106, 107, 108, 109), "ok"},
		{lower, sum(100, 101, 102, 103, 104), sum(115, 116, 117, 118, 119), "worse"},
		{higher, sum(100, 101, 102, 103, 104), sum(85, 86, 87, 88, 89), "worse"},
		{higher, sum(100, 101, 102, 103, 104), sum(95, 96, 97, 98, 99), "ok"},
		{lower, sum(80, 90, 100, 110, 120), sum(85, 95, 105, 115, 125), "unresolved"},
		{lower, sum(80, 90, 100, 110, 120), sum(40, 50, 60, 70, 79), "ok"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %v vs %v = %s, want %s", c.d.Name, c.a.Values, c.b.Values, got, c.want)
		}
	}
}
