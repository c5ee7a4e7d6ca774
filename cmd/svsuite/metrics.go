package main

import (
	"bufio"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric of the suite. The tables below are the single
// source of truth inside the program; BENCHMARK.json at the repository root
// mirrors them and suite_test.go fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd lists the metrics a user of the system would see. Every workload
// reports every one of them, and none is ever zero. The bound of a count per
// sample is three times the widest quartile spread it showed over ten seeds
// on the two-core sandbox (README.md, "Steadiness"). The four timings and the
// resident set sit at the contract's ceiling of 0.25 instead: their spreads
// stay under a third of it in a quiet hour, but the sandbox's own speed
// drifts by 15-20% between hours.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"ttf1000_ms_p50", "ms", "lower", 0.25},
	{"sim_io_ms_per_ksample", "ms", "lower", 0.03},
	{"cpu_ms_per_ksample", "ms", "lower", 0.25},
	{"alloc_kb_per_ksample", "KiB", "lower", 0.05},
	{"rss_mb_p50", "MiB", "lower", 0.25},
	{"space_amp", "ratio", "lower", 0.01},
}

// perLayer lists the single-layer metrics a traced run reports. A workload
// on which a layer does no work reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"pagefile.pages_read_per_ksample", "count", "lower", 0},
	{"pagefile.random_read_share", "ratio", "lower", 0},
	{"pagefile.read_us_per_page", "us", "lower", 0},
	{"pagefile.self_ns_per_sample", "ns", "lower", 0},
	{"record.decode_ns_per_rec", "ns", "lower", 0},
	{"record.self_ns_per_sample", "ns", "lower", 0},
	{"core.self_ns_per_sample", "ns", "lower", 0},
	{"core.open_us_p50", "us", "lower", 0},
	{"core.emit_ratio", "ratio", "higher", 0},
	{"core.build_s", "s", "lower", 0},
	{"sampleview.self_ns_per_sample", "ns", "lower", 0},
	{"sampleview.open_us_p50", "us", "lower", 0},
	{"sampleview.ttf1000_ms_p95", "ms", "lower", 0},
	{"sampleview.ingest_acked_per_s", "1/s", "higher", 0},
	{"sampleview.write_ack_ms_p50", "ms", "lower", 0},
	{"sampleview.write_amp", "ratio", "lower", 0},
	{"sampleview.generator_late_ms_p95", "ms", "lower", 0},
	{"memview.insert_ns_per_rec", "ns", "lower", 0},
	{"wal.append_us_per_batch", "us", "lower", 0},
	{"wal.commit_us_p50", "us", "lower", 0},
	{"wal.commit_us_p95", "us", "lower", 0},
	{"wal.fsyncs_per_batch", "ratio", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"lsm.flush_ms_p50", "ms", "lower", 0},
	{"lsm.flush_ms_max", "ms", "lower", 0},
	{"lsm.compact_ms_total", "ms", "lower", 0},
	{"lsm.rewritten_bytes_per_user_byte", "ratio", "lower", 0},
	{"lsm.maint_busy_share", "ratio", "lower", 0},
	{"lsm.ttf1000_ms_p95", "ms", "lower", 0},
	{"lsm.write_ack_ms_p95", "ms", "lower", 0},
	{"lsm.open_gather_ms_p50", "ms", "lower", 0},
	{"lsm.gather_pages_per_open", "count", "lower", 0},
	{"lsm.merge_self_ns_per_sample", "ns", "lower", 0},
	{"lsm.levels_at_end", "count", "lower", 0},
	{"lsm.delta_records_at_end", "count", "lower", 0},
	{"interleave.pick_ns", "ns", "lower", 0},
	{"shard.self_ns_per_sample", "ns", "lower", 0},
	{"shard.open_us_p50", "us", "lower", 0},
	{"shard.sim_speedup", "ratio", "higher", 0},
	{"shard.build_s", "s", "lower", 0},
	{"server.open_rtt_us_p50", "us", "lower", 0},
	{"server.batch_rtt_us_p50", "us", "lower", 0},
	{"server.batch_rtt_us_p95", "us", "lower", 0},
	{"server.self_us_per_batch", "us", "lower", 0},
	{"server.source_share", "ratio", "higher", 0},
	{"server.wire_bytes_per_sample", "B", "lower", 0},
	{"server.batches_per_ksample", "count", "lower", 0},
	{"server.ttf1000_ms_p95", "ms", "lower", 0},
	{"fleet.open_rtt_us_p50", "us", "lower", 0},
	{"fleet.batch_rtt_us_p50", "us", "lower", 0},
	{"fleet.batch_rtt_us_p95", "us", "lower", 0},
	{"fleet.self_us_per_batch", "us", "lower", 0},
	{"fleet.placement_skew", "ratio", "lower", 0},
	{"fleet.hedged_reads", "count", "lower", 0},
	{"fleet.migrations", "count", "lower", 0},
	{"fleet.ttf1000_ms_p95", "ms", "lower", 0},
	{"setup.rss_peak_mb", "MiB", "lower", 0},
	{"ladder.closure_ratio", "ratio", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"check.digest_known", "ratio", "higher", 0},
	{"check.chi2_min_p", "ratio", "higher", 0},
	{"check.bucket_dev_max", "ratio", "lower", 0},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name while a workload runs.
type metricSet map[string]float64

// report renders the set against defs: every defined metric appears, with 0
// for a name the workload never set.
func (m metricSet) report(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// percentile returns the p-quantile (0..1) of ds by nearest rank; 0 when
// empty. It sorts ds in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(p*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, or 0 when b is 0, so an idle layer reports 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianFloat returns the median of vs (mean of the middle pair when even).
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs by the exclusive
// method Python's statistics.quantiles(values, n=4) uses, so the spreads
// this program prints are the ones the acceptance driver computes.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// statusMiB returns one memory field of /proc/self/status ("VmRSS", "VmHWM")
// in MiB.
func statusMiB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
