package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"sampleview"
	"sampleview/internal/fleet"
	"sampleview/internal/iosim"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/shard"
)

// workloadDef is one entry of the suite. The names are permanent: results
// checked in under one name are compared across changes.
type workloadDef struct {
	name string
	why  string
	run  func(cfg runConfig) (*runResult, error)
}

var workloads = []workloadDef{
	{"scan-local", "2 clients sample one opened view in process: pagefile, record, core and sampleview do all the work; no delta ladder, no socket", runScanLocal},
	{"serve-wire", "the same view and op list through server.Server over loopback: the difference from scan-local is the serving layer alone", runServeWire},
	{"ingest-mixed", "a WAL-backed view takes a burst of inserts and tombstones, then an open-loop writer runs beside a reader: memview, wal and lsm carry the load", runIngestMixed},
	{"fleet-sharded", "a fleet.Router over 2 replicas each hosting a K=4 sharded view: the only workload where shard, interleave and fleet do work", runFleetSharded},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is one invocation: a workload, its query seed, how long to
// measure and whether to trace.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	sc       scale
	workDir  string // exists, is empty, and is removed by the caller
	traceOut string // where a traced run writes its spans ("" = nowhere)
}

// runResult is what a workload reports.
type runResult struct {
	attempted int
	failed    int
	correct   bool
	metrics   metricSet
	digest    uint64   // over the first sc.digestOps ops of each client
	notes     []string // why correct is false, and the first failed ops
}

func newResult() *runResult { return &runResult{correct: true, metrics: metricSet{}} }

func (r *runResult) incorrect(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

//go:embed testdata/digests.json
var digestsJSON []byte

// knownDigest compares the run's digest with the one checked in for this
// (workload, scale, seed): 1 match, 0 none checked in, -1 mismatch. A
// mismatch does not make the run incorrect — a change may legitimately
// reorder a stream, and every per-record check still applies — but it is
// reported, because a refactor that promises byte-identical streams must
// keep it at 1.
func knownDigest(cfg runConfig, digest uint64) float64 {
	var known map[string]string
	if err := json.Unmarshal(digestsJSON, &known); err != nil {
		return 0
	}
	want, ok := known[fmt.Sprintf("%s/%d/%d", cfg.workload, cfg.sc.records, cfg.seed)]
	if !ok {
		return 0
	}
	if want == fmt.Sprintf("%016x", digest) {
		return 1
	}
	return -1
}

// passResult is one closed-loop read pass.
type passResult struct {
	totals readTotals
	ph     phase
	simIO  time.Duration
	reads  iosim.Counters
}

// nsInLayer is the time a traced pass spent inside the calls recorded under
// the two span names, per delivered record: what the seam ladder's top cell
// must reproduce.
func (p *passResult) nsInLayer(tr *tracer, openSpan, pullSpan string) float64 {
	in := sumDur(tr.durations(openSpan)) + sumDur(tr.durations(pullSpan))
	return ratio(float64(in), float64(p.totals.records))
}

// passWindows splits a run's window. An untraced run spends a quarter on a
// latency pass and the rest on the throughput pass with every client. The
// latency pass has one reader, so ttf1000 is a service time and not the queue
// two readers on two cores build behind each other (which on this sandbox
// turned a 15% slower minute into a 27% longer ttf), and its ops close at the
// ttfMark-th sample, so it fits some ten times the ops of the throughput pass
// into a second and the median stops moving with which ops a run happened to
// reach. A traced run has no latency pass: an untraced and a traced
// throughput pass of equal length (their gap is the tracing overhead), the
// rest being left to the seam ladder.
func passWindows(cfg runConfig) (latency, untraced, traced time.Duration) {
	if !cfg.trace {
		return cfg.window / 4, cfg.window - cfg.window/4, 0
	}
	return 0, cfg.window / 3, cfg.window / 3
}

// setReadMetrics fills the end-to-end read metrics from an untraced
// throughput pass and the latency pass that went before it (nil when the
// throughput pass itself had one reader, or the run is traced).
func (r *runResult) setReadMetrics(p, latency *passResult) {
	ks := float64(p.totals.records) / 1000
	r.attempted += p.totals.attempted
	r.failed += p.totals.failed
	r.notes = append(r.notes, p.totals.firstErrs...)
	r.digest = p.totals.digest
	ttf := p.totals.ttf
	if latency != nil {
		r.attempted += latency.totals.attempted
		r.failed += latency.totals.failed
		r.notes = append(r.notes, latency.totals.firstErrs...)
		ttf = latency.totals.ttf
	}
	r.metrics["samples_per_s"] = p.ph.rate
	r.metrics["ttf1000_ms_p50"] = ms(percentile(ttf, 0.5))
	r.metrics["sim_io_ms_per_ksample"] = ratio(ms(p.simIO), ks)
	r.metrics["cpu_ms_per_ksample"] = p.ph.cpuMsPerK
	r.metrics["alloc_kb_per_ksample"] = p.ph.allocKBPerK
	r.metrics["rss_mb_p50"] = p.ph.rssMiB
}

// setPageMetrics fills the exact page-read counters of a traced pass.
func (r *runResult) setPageMetrics(p *passResult) {
	r.metrics["pagefile.pages_read_per_ksample"] = ratio(float64(p.reads.Reads()), float64(p.totals.records)/1000)
	r.metrics["pagefile.random_read_share"] = ratio(float64(p.reads.RandomReads), float64(p.reads.Reads()))
}

// setTraceOverhead records the throughput gap between the two passes.
func (r *runResult) setTraceOverhead(untraced, traced *passResult, tr *tracer) {
	r.metrics["trace.overhead_share"] = 1 - ratio(traced.ph.rate, untraced.ph.rate)
	r.metrics["trace.spans"] = float64(tr.count())
}

// finish fills what every workload reports last: space, the digest verdict
// and the pooled uniformity check.
func (r *runResult) finish(cfg runConfig, dataDir string, liveRecords int64, ops []opResult, models ...[]int64) {
	if bytes, err := dirBytes(dataDir); err != nil {
		r.incorrect("sizing %s: %v", dataDir, err)
	} else {
		r.metrics["space_amp"] = ratio(float64(bytes), float64(liveRecords)*record.Size)
	}
	r.metrics["check.digest_known"] = knownDigest(cfg, r.digest)
	p, dev, err := uniformity(ops, models...)
	if err != nil {
		r.incorrect("uniformity: %v", err)
	}
	r.metrics["check.chi2_min_p"] = p
	r.metrics["check.bucket_dev_max"] = dev
	if dev > maxBucketDev {
		r.incorrect("first-%d samples are not uniform over their predicates: a pooled key slice is %.0f%% off its expected share (limit %.0f%%, chi-square p=%.3g)",
			ttfMark, dev*100, maxBucketDev*100, p)
	}
	if r.failed > 0 {
		r.correct = false
	}
}

// ---- scan-local and serve-wire: one opened view, optionally served ----

// localEnv is an opened unsharded view and, for serve-wire, the server in
// front of it.
type localEnv struct {
	rel    *relation
	dir    string
	path   string
	v      *sampleview.View
	build  time.Duration
	srv    *server.Server
	served chan struct{} // closed when Serve returns
	addr   string
}

// close shuts the listener down and closes the view; calling it again is a
// no-op.
func (e *localEnv) close() {
	if e.srv != nil {
		e.srv.Shutdown()
		<-e.served
		e.srv = nil
	}
	if e.v != nil {
		e.v.Close()
		e.v = nil
	}
}

const viewName = "sale"

// setupLocal generates the relation, builds the view file, reopens it the
// way svserve would, and — when serve is set — puts a server in front of it
// on a loopback listener. A traced run hosts the view behind the timing
// wrapper, under the same name so the router places it as it would the bare
// view; the wrapper stays out of the way until its tracer is switched on.
func setupLocal(dir string, sc scale, opts sampleview.Options, serve bool, tr *tracer) (*localEnv, error) {
	e := &localEnv{rel: generate(sc.records), dir: dir, path: filepath.Join(dir, "sale.view")}
	start := time.Now()
	v, err := sampleview.CreateFromSlice(e.path, e.rel.recs, opts)
	if err != nil {
		return nil, err
	}
	e.build = time.Since(start)
	e.rel.recs = nil
	if err := v.Close(); err != nil {
		return nil, err
	}
	if e.v, err = sampleview.Open(e.path, opts); err != nil {
		return nil, err
	}
	if !serve {
		return e, nil
	}
	e.srv = server.New(server.Config{})
	if tr != nil {
		e.srv.AddSource(viewName, timedSource{server.LocalSource(e.v), tr})
	} else {
		e.srv.AddView(viewName, e.v)
	}
	e.addr, e.served, err = serveOn(e.srv.Serve)
	if err != nil {
		e.srv = nil
		e.close()
		return nil, err
	}
	return e, nil
}

// serveOn opens a loopback listener and runs serve on it in a goroutine;
// the channel closes when serve returns (after Shutdown).
func serveOn(serve func(net.Listener) error) (string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ln) // returns once Shutdown closes the listener; nothing to report
	}()
	return ln.Addr().String(), done, nil
}

func (e *localEnv) localPass(cfg runConfig, readers, budget int, window time.Duration, tr *tracer) *passResult {
	p := &passResult{}
	samplers := make([]*localSampler, readers)
	var runs []clientRun
	p.ph = measure(func(delivered *atomic.Int64) {
		runs = runClosedLoop(readers, budget, cfg.seed, cfg.sc, window, e.rel.matching, cfg.sc.records,
			probe{tr, "sampleview.open", "sampleview.sample", delivered}, func(c int) (sampler, func(), error) {
				samplers[c] = &localSampler{v: e.v}
				return samplers[c], func() {}, nil
			})
	})
	for _, s := range samplers {
		p.simIO += s.sim
		addReads(&p.reads, s.reads)
	}
	p.totals = totalReads(runs, cfg.sc)
	return p
}

func countersDelta(a, b iosim.Counters) iosim.Counters {
	return iosim.Counters{
		RandomReads:      b.RandomReads - a.RandomReads,
		SequentialReads:  b.SequentialReads - a.SequentialReads,
		RandomWrites:     b.RandomWrites - a.RandomWrites,
		SequentialWrites: b.SequentialWrites - a.SequentialWrites,
	}
}

// replayDigest runs the digested prefix of every client's op list once more,
// single-threaded and in process, and returns its digest. scan-local uses it
// to check that a stream is a function of its predicate alone; serve-wire to
// check that the wire delivers exactly what the view produced.
func (e *localEnv) replayDigest(cfg runConfig) uint64 {
	runs := make([]clientRun, clients)
	seen := newSeqSet(cfg.sc.records)
	for c := range runs {
		sm := &localSampler{v: e.v}
		for _, o := range opList(cfg.seed, c, cfg.sc.digestOps) {
			runs[c].ops = append(runs[c].ops, runOp(sm, o, budget, seen, e.rel.matching(o.q), probe{}))
		}
	}
	return totalReads(runs, cfg.sc).digest
}

func runScanLocal(cfg runConfig) (*runResult, error) {
	env, setup, err := medianSetup(cfg.sc, cfg.workDir, func(dir string) (*localEnv, error) {
		return setupLocal(dir, cfg.sc, viewOptions(), false, nil)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := newResult()
	setup.report(res.metrics)
	res.metrics["core.build_s"] = env.build.Seconds()

	latencyWin, untracedWin, tracedWin := passWindows(cfg)
	var latency *passResult
	if latencyWin > 0 {
		latency = env.localPass(cfg, 1, ttfMark, latencyWin, nil)
	}
	base := env.localPass(cfg, clients, budget, untracedWin, nil)
	res.setReadMetrics(base, latency)
	ops := base.totals.ops
	if cfg.trace {
		tr := newTracer()
		traced := env.localPass(cfg, clients, budget, tracedWin, tr)
		res.setTraceOverhead(base, traced, tr)
		res.setPageMetrics(traced)
		res.metrics["sampleview.open_us_p50"] = us(percentile(tr.durations("sampleview.open"), 0.5))
		res.metrics["sampleview.ttf1000_ms_p95"] = ms(percentile(traced.totals.ttf, 0.95))
		if err := ladderUnsharded(env.path, env.v, ladderOps(cfg.seed, clients, cfg.sc.ladderOps), false, res.metrics, traced.nsInLayer(tr, "sampleview.open", "sampleview.sample")); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	if got := env.replayDigest(cfg); got != res.digest {
		res.incorrect("replaying the first %d ops per client gave digest %016x, the run gave %016x", cfg.sc.digestOps, got, res.digest)
	}
	res.finish(cfg, env.dir, int64(cfg.sc.records), ops, env.rel.sorted)
	return res, nil
}

// wireTarget is where a wire pass connects and what accounts for it: the
// listener's address, whether each client names its own tenant, the replica
// servers whose counters the pass moves, and the layer ("server" or "fleet")
// its client spans are recorded under.
type wireTarget struct {
	layer   string
	addr    string
	tenants bool
	servers []*server.Server
}

// wirePass runs the closed loop over client connections to the target. A
// non-nil tr records the client spans and switches the servers' timing
// wrappers on for the pass.
func wirePass(cfg runConfig, rel *relation, tgt wireTarget, readers, budget int, window time.Duration, tr *tracer) (*passResult, wireCounts) {
	p := &passResult{}
	before := snapshotAll(tgt.servers)
	var runs []clientRun
	tr.setEnabled(true)
	defer tr.setEnabled(false)
	p.ph = measure(func(delivered *atomic.Int64) {
		runs = runClosedLoop(readers, budget, cfg.seed, cfg.sc, window, rel.matching, cfg.sc.records,
			probe{tr, tgt.layer + ".open", tgt.layer + ".batch", delivered},
			func(c int) (sampler, func(), error) {
				tenant := ""
				if tgt.tenants {
					tenant = fmt.Sprintf("tenant-%d", c)
				}
				return dialSampler(tgt.addr, viewName, tenant)
			})
	})
	wc := snapshotAll(tgt.servers).minus(before)
	p.simIO = wc.simIO
	p.totals = totalReads(runs, cfg.sc)
	return p, wc
}

// wireCounts sums the serving-layer counters of a set of replica servers.
type wireCounts struct {
	simIO        time.Duration
	bytesWritten int64
	batches      int64
	records      int64
	opened       []int64 // StreamsOpened per server
}

func snapshotAll(servers []*server.Server) wireCounts {
	var wc wireCounts
	for _, s := range servers {
		snap := s.Snapshot()
		wc.simIO += snap.SimIO
		wc.bytesWritten += snap.BytesWritten
		wc.batches += snap.BatchesServed
		wc.records += snap.RecordsServed
		wc.opened = append(wc.opened, snap.StreamsOpened)
	}
	return wc
}

func (a wireCounts) minus(b wireCounts) wireCounts {
	d := wireCounts{
		simIO:        a.simIO - b.simIO,
		bytesWritten: a.bytesWritten - b.bytesWritten,
		batches:      a.batches - b.batches,
		records:      a.records - b.records,
	}
	for i := range a.opened {
		d.opened = append(d.opened, a.opened[i]-b.opened[i])
	}
	return d
}

// setRTTMetrics fills a serving layer's round-trip metrics from the client
// spans of a traced pass; layer is "server" or "fleet", spanPrefix the side
// pass the spans were recorded under ("" for the main pass).
func (r *runResult) setRTTMetrics(layer string, tr *tracer, spanPrefix string) {
	r.metrics[layer+".open_rtt_us_p50"] = us(percentile(tr.durations(spanPrefix+layer+".open"), 0.5))
	rtt := tr.durations(spanPrefix + layer + ".batch")
	r.metrics[layer+".batch_rtt_us_p50"] = us(percentile(rtt, 0.5))
	r.metrics[layer+".batch_rtt_us_p95"] = us(percentile(rtt, 0.95))
}

// meanUs is the mean duration in microseconds.
func meanUs(ds []time.Duration) float64 { return ratio(us(sumDur(ds)), float64(len(ds))) }

func runServeWire(cfg runConfig) (*runResult, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	env, setup, err := medianSetup(cfg.sc, cfg.workDir, func(dir string) (*localEnv, error) {
		return setupLocal(dir, cfg.sc, viewOptions(), true, tr)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := newResult()
	setup.report(res.metrics)
	res.metrics["core.build_s"] = env.build.Seconds()
	tgt := wireTarget{layer: "server", addr: env.addr, servers: []*server.Server{env.srv}}

	latencyWin, untracedWin, tracedWin := passWindows(cfg)
	var latency *passResult
	if latencyWin > 0 {
		latency, _ = wirePass(cfg, env.rel, tgt, 1, ttfMark, latencyWin, nil)
	}
	base, _ := wirePass(cfg, env.rel, tgt, clients, budget, untracedWin, nil)
	res.setReadMetrics(base, latency)
	if cfg.trace {
		before := env.v.Stats().Counters
		traced, wc := wirePass(cfg, env.rel, tgt, clients, budget, tracedWin, tr)
		traced.reads = countersDelta(before, env.v.Stats().Counters)
		res.setTraceOverhead(base, traced, tr)
		res.setPageMetrics(traced)
		res.setRTTMetrics("server", tr, "")
		res.metrics["server.ttf1000_ms_p95"] = ms(percentile(traced.totals.ttf, 0.95))
		rtt, src := tr.durations("server.batch"), tr.durations("source.sample")
		res.metrics["server.self_us_per_batch"] = meanUs(rtt) - meanUs(src)
		res.metrics["server.source_share"] = ratio(float64(sumDur(src)), float64(sumDur(rtt)))
		res.metrics["server.wire_bytes_per_sample"] = ratio(float64(wc.bytesWritten), float64(wc.records))
		res.metrics["server.batches_per_ksample"] = ratio(float64(wc.batches), float64(wc.records)/1000)
		res.metrics["sampleview.open_us_p50"] = us(percentile(tr.durations("source.open"), 0.5))
		if err := ladderUnsharded(env.path, env.v, ladderOps(cfg.seed, clients, cfg.sc.ladderOps), false, res.metrics,
			traced.nsInLayer(tr, "source.open", "source.sample")); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	if got := env.replayDigest(cfg); got != res.digest {
		res.incorrect("the wire delivered digest %016x, the same ops in process give %016x", res.digest, got)
	}
	env.close() // listeners go down before anything is printed
	res.finish(cfg, env.dir, int64(cfg.sc.records), base.totals.ops, env.rel.sorted)
	return res, nil
}

// ---- fleet-sharded: router -> 2 replicas -> K=4 sharded views ----

type fleetEnv struct {
	rel      *relation
	dir      string
	build    time.Duration
	views    []*shard.View
	servers  []*server.Server
	served   []chan struct{}
	addrs    []string
	router   *fleet.Router
	routed   chan struct{}
	addr     string
	replDirs []string
}

func (e *fleetEnv) close() {
	if e.router != nil {
		e.router.Shutdown()
		<-e.routed
		e.router = nil
	}
	for i, s := range e.servers {
		s.Shutdown()
		<-e.served[i]
	}
	e.servers = nil
	for _, v := range e.views {
		v.Close()
	}
	e.views = nil
}

// setupFleet builds the sharded view once, links its files into a second
// directory so both replicas hold the same bytes, serves each directory and
// fronts them with a router. Hedging is off and every other knob is what svserve/svrouter ship.
func setupFleet(dir string, sc scale, tr *tracer) (*fleetEnv, error) {
	e := &fleetEnv{rel: generate(sc.records), dir: dir}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	for i := 0; i < replicas; i++ {
		e.replDirs = append(e.replDirs, filepath.Join(dir, fmt.Sprintf("replica%d", i)))
	}
	start := time.Now()
	built, err := shard.Create(e.replDirs[0], e.rel.recs, shardOptions())
	if err != nil {
		return nil, err
	}
	e.build = time.Since(start)
	e.rel.recs = nil
	if err := built.Close(); err != nil {
		return nil, err
	}
	for _, d := range e.replDirs[1:] {
		if err := linkDir(e.replDirs[0], d); err != nil {
			return nil, err
		}
	}
	for i, d := range e.replDirs {
		v, err := shard.Open(d, shardOptions())
		if err != nil {
			return nil, err
		}
		e.views = append(e.views, v)
		srv := server.New(server.Config{ReplicaID: fmt.Sprintf("replica-%d", i)})
		src := server.ShardedSource(v)
		if tr != nil {
			src = timedSource{src, tr}
		}
		srv.AddSource(viewName, src)
		addr, done, err := serveOn(srv.Serve)
		if err != nil {
			return nil, err
		}
		e.servers = append(e.servers, srv)
		e.served = append(e.served, done)
		e.addrs = append(e.addrs, addr)
	}
	router, err := fleet.New(fleet.Config{Replicas: e.addrs, Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	if err := router.Connect(); err != nil {
		return nil, err
	}
	if e.addr, e.routed, err = serveOn(router.Serve); err != nil {
		router.Shutdown()
		return nil, err
	}
	e.router = router
	ok = true
	return e, nil
}

func runFleetSharded(cfg runConfig) (*runResult, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	env, setup, err := medianSetup(cfg.sc, cfg.workDir, func(dir string) (*fleetEnv, error) {
		return setupFleet(dir, cfg.sc, tr)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := newResult()
	setup.report(res.metrics)
	res.metrics["shard.build_s"] = env.build.Seconds()

	routed := wireTarget{layer: "fleet", addr: env.addr, tenants: true, servers: env.servers}

	latencyWin, untracedWin, tracedWin := passWindows(cfg)
	var latency *passResult
	if latencyWin > 0 {
		latency, _ = wirePass(cfg, env.rel, routed, 1, ttfMark, latencyWin, nil)
	}
	base, wc := wirePass(cfg, env.rel, routed, clients, budget, untracedWin, nil)
	res.setReadMetrics(base, latency)
	res.metrics["fleet.placement_skew"] = placementSkew(wc.opened)
	if cfg.trace {
		// The routed pass first, then — for half as long — the same ops
		// straight at replica 0, so the serving layer's own cost over a
		// sharded source can be taken out of the router's.
		readsBefore := fleetReads(env.views)
		traced, twc := wirePass(cfg, env.rel, routed, clients, budget, tracedWin, tr)
		traced.reads = countersDelta(readsBefore, fleetReads(env.views))
		routedSrc := tr.durations("source.sample")
		routedOpen := tr.durations("source.open")
		tr.setPrefix("direct/")
		direct := wireTarget{layer: "server", addr: env.addrs[0], servers: env.servers[:1]}
		wirePass(cfg, env.rel, direct, clients, budget, tracedWin/2, tr)
		tr.setPrefix("")

		res.setTraceOverhead(base, traced, tr)
		res.setPageMetrics(traced)
		res.setRTTMetrics("fleet", tr, "")
		res.metrics["fleet.ttf1000_ms_p95"] = ms(percentile(traced.totals.ttf, 0.95))
		res.setRTTMetrics("server", tr, "direct/")
		serverSelf := meanUs(tr.durations("direct/server.batch")) - meanUs(tr.durations("direct/source.sample"))
		res.metrics["server.self_us_per_batch"] = serverSelf
		res.metrics["server.source_share"] = ratio(float64(sumDur(tr.durations("direct/source.sample"))), float64(sumDur(tr.durations("direct/server.batch"))))
		res.metrics["fleet.self_us_per_batch"] = meanUs(tr.durations("fleet.batch")) - meanUs(routedSrc) - serverSelf
		res.metrics["server.wire_bytes_per_sample"] = ratio(float64(twc.bytesWritten), float64(twc.records))
		res.metrics["server.batches_per_ksample"] = ratio(float64(twc.batches), float64(twc.records)/1000)
		res.metrics["fleet.placement_skew"] = placementSkew(twc.opened)
		res.metrics["shard.open_us_p50"] = us(percentile(routedOpen, 0.5))
		res.metrics["interleave.pick_ns"] = interleavePickNs(shardK)
		if err := ladderSharded(env.replDirs[0], env.views[0], ladderOps(cfg.seed, clients, cfg.sc.ladderOps), res.metrics,
			traced.nsInLayer(tr, "source.open", "source.sample")); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	snap := env.router.Snapshot()
	res.metrics["fleet.hedged_reads"] = float64(snap.HedgedReads)
	res.metrics["fleet.migrations"] = float64(snap.Migrations)
	if snap.HedgedReads != 0 || snap.Migrations != 0 {
		res.incorrect("router hedged %d reads and migrated %d streams; both must be 0 with hedging off and no faults", snap.HedgedReads, snap.Migrations)
	}
	env.close()
	res.finish(cfg, env.dir, int64(cfg.sc.records), base.totals.ops, env.rel.sorted)
	return res, nil
}

// placementSkew is max over mean of the streams each replica was given.
func placementSkew(opened []int64) float64 {
	var sum, max int64
	for _, n := range opened {
		sum += n
		if n > max {
			max = n
		}
	}
	return ratio(float64(max)*float64(len(opened)), float64(sum))
}

func fleetReads(views []*shard.View) iosim.Counters {
	var c iosim.Counters
	for _, v := range views {
		addReads(&c, v.Stats().Counters)
	}
	return c
}

// writeTrace writes the run's spans where the caller asked for them.
func writeTrace(cfg runConfig, tr *tracer) error {
	if cfg.traceOut == "" {
		return nil
	}
	return tr.writeFile(cfg.traceOut)
}
