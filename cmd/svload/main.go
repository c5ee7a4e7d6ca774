// Command svload is a closed-loop load generator for svserve: N concurrent
// clients each open sample streams for randomized range predicates of mixed
// selectivity, pull batches until a per-query sample budget is met, and
// verify on the fly that every delivered prefix is a plausible uniform
// without-replacement sample (no duplicates, every record inside the
// predicate). With -check it additionally cross-checks each stream
// record-for-record against an in-process stream over the same view file,
// which must agree exactly since core streams are deterministic given the
// stored view.
//
// With -writers the workload turns mixed: that many writer connections
// append fresh records, tombstone a slice of what they appended, and flush,
// racing the readers for the run's whole duration. The readers' on-the-fly
// verification keeps holding — every delivered prefix must stay duplicate-
// free and inside the predicate while memview flushes and delta compactions
// run underneath. Backlog rejections are absorbed by flushing and retrying.
// -writers is incompatible with -check (the served view diverges from the
// static check file as soon as the first append lands).
//
// With -tenants N the clients spread round-robin across N tenant
// identities (declared via set-tenant before the first stream), so the
// server's — or a fleet router's — per-tenant admission and accounting are
// exercised.
//
// Usage:
//
//	svload -connect 127.0.0.1:7070 -view sale -clients 64 -ops 10 \
//	       -samples 2000 -check sale.view
//	svload -connect 127.0.0.1:7070 -view sale -clients 16 -writers 4
//	svload -connect 127.0.0.1:7000 -view sale -clients 32 -tenants 8
//
// svload is a correctness drill: it prints what it did and every failure,
// and exits non-zero on any. Serving-path throughput and latency are
// measured by svsuite's serve-wire workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sampleview"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/workload"
)

// selectivities are the paper's evaluation mix: 0.25%, 2.5% and 25% range
// predicates, cycled per operation.
var selectivities = []float64{0.0025, 0.025, 0.25}

type clientResult struct {
	ops        int
	records    int64
	rejections int
	failures   []string
}

func main() {
	var (
		connect = flag.String("connect", "127.0.0.1:7070", "server address")
		view    = flag.String("view", "sale", "served view name")
		clients = flag.Int("clients", 64, "concurrent client connections")
		ops     = flag.Int("ops", 10, "queries per client")
		samples = flag.Int("samples", 2000, "sample budget per query")
		batch   = flag.Int("batch", 256, "records per batch pull")
		seed    = flag.Uint64("seed", 1, "workload seed")
		check   = flag.String("check", "", "view file for exact record-for-record cross-checking")
		writers = flag.Int("writers", 0, "concurrent writer connections appending/deleting/flushing for the run's duration")
		wbatch  = flag.Int("write-batch", 128, "records per append batch")
		tenants = flag.Int("tenants", 0, "spread clients round-robin across this many tenant identities (0 = untenanted)")
	)
	flag.Parse()
	if *writers > 0 && *check != "" {
		fmt.Fprintln(os.Stderr, "svload: -writers is incompatible with -check (the served view mutates under the workload)")
		os.Exit(2)
	}

	// Probe the server once for view metadata before unleashing the fleet.
	probe, err := server.Dial(*connect)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svload: %v\n", err)
		os.Exit(1)
	}
	pv, err := probe.OpenView(*view)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svload: %v\n", err)
		os.Exit(1)
	}
	dims := pv.Dims()
	fmt.Printf("view %q: %d records, %d dims; %d clients x %d ops x %d samples\n",
		*view, pv.Count(), dims, *clients, *ops, *samples)

	results := make([]clientResult, *clients)
	start := time.Now()
	var wg sync.WaitGroup
	var live, peak atomic.Int64
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		tenant := ""
		if *tenants > 0 {
			tenant = fmt.Sprintf("tenant-%02d", c%*tenants)
		}
		go func(c int, tenant string) {
			defer wg.Done()
			results[c] = runClient(*connect, *view, *check, tenant, dims,
				*seed+uint64(c)*1000003, *ops, *samples, *batch, &live, &peak)
		}(c, tenant)
	}

	// Writers race the readers for the whole run, stopping when the last
	// reader finishes.
	stop := make(chan struct{})
	wresults := make([]writerResult, *writers)
	var wwg sync.WaitGroup
	for w := 0; w < *writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			wresults[w] = runWriter(*connect, *view, w,
				*seed+uint64(w)*6700417, *wbatch, stop)
		}(w)
	}
	wg.Wait()
	close(stop)
	wwg.Wait()
	elapsed := time.Since(start)

	var total clientResult
	for _, r := range results {
		total.ops += r.ops
		total.records += r.records
		total.rejections += r.rejections
		total.failures = append(total.failures, r.failures...)
	}
	var wtotal writerResult
	for _, r := range wresults {
		wtotal.appended += r.appended
		wtotal.deleted += r.deleted
		wtotal.flushes += r.flushes
		wtotal.rejections += r.rejections
		total.failures = append(total.failures, r.failures...)
	}
	snap, err := probe.ServerStats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "svload: fetching server stats: %v\n", err)
		os.Exit(1)
	}
	probe.Close()

	fmt.Printf("%d queries, %d records in %v; peak %d concurrent streams; %d admission rejections retried\n",
		total.ops, total.records, elapsed.Round(time.Millisecond), peak.Load(), total.rejections)
	if *writers > 0 {
		fmt.Printf("%d writers: %d appended, %d deleted, %d flushes, %d backlog rejections retried\n",
			*writers, wtotal.appended, wtotal.deleted, wtotal.flushes, wtotal.rejections)
	}
	fmt.Println("server counters after the run:")
	snap.Dump(os.Stdout)
	for i, f := range total.failures {
		if i == 20 {
			fmt.Printf("... and %d more failures\n", len(total.failures)-20)
			break
		}
		fmt.Printf("FAIL: %s\n", f)
	}
	if len(total.failures) > 0 {
		os.Exit(1)
	}
}

// writerResult aggregates one writer connection's activity.
type writerResult struct {
	appended   int64
	deleted    int64
	flushes    int64
	rejections int64 // backlog rejections absorbed by flushing and retrying
	failures   []string
}

// runWriter drives one writer connection until stop closes: append a fresh
// batch, tombstone the first half of every third batch, flush every fifth
// iteration, and absorb backlog rejections by flushing and retrying. Each
// writer owns a disjoint Seq range, so appended records never collide and a
// deleted Seq is never reinserted.
func runWriter(addr, view string, id int, seed uint64, batchSize int, stop <-chan struct{}) writerResult {
	var res writerResult
	fail := func(format string, args ...any) {
		res.failures = append(res.failures, fmt.Sprintf("writer %d: %s", id, fmt.Sprintf(format, args...)))
	}
	cl, err := server.Dial(addr)
	if err != nil {
		fail("dial: %v", err)
		return res
	}
	defer cl.Close()
	rv, err := cl.OpenView(view)
	if err != nil {
		fail("open view: %v", err)
		return res
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	const domain = 1 << 20
	seq := uint64(id+1) << 40
	for iter := 0; ; iter++ {
		select {
		case <-stop:
			return res
		default:
		}
		batch := make([]record.Record, batchSize)
		for i := range batch {
			batch[i] = record.Record{Key: rng.Int64N(domain), Amount: rng.Int64N(domain), Seq: seq}
			seq++
		}
		for {
			n, err := rv.Append(batch)
			if err == nil {
				res.appended += int64(n)
				break
			}
			if server.IsWriteReject(err) {
				res.rejections++
				if _, ferr := rv.Flush(); ferr != nil {
					fail("flush under backlog: %v", ferr)
					return res
				}
				res.flushes++
				continue
			}
			fail("append: %v", err)
			return res
		}
		if iter%3 == 2 {
			if n, err := rv.Delete(batch[:len(batch)/2]); err != nil {
				fail("delete: %v", err)
				return res
			} else {
				res.deleted += int64(n)
			}
		}
		if iter%5 == 4 {
			if _, err := rv.Flush(); err != nil {
				fail("flush: %v", err)
				return res
			}
			res.flushes++
		}
	}
}

// runClient drives one connection through its operations. A non-empty
// tenant is declared to the server before any stream opens, so admission
// and accounting run under that identity.
func runClient(addr, view, check, tenant string, dims int, seed uint64, ops, samples, batchSize int,
	live, peak *atomic.Int64) clientResult {
	var res clientResult
	fail := func(format string, args ...any) {
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}
	cl, err := server.Dial(addr)
	if err != nil {
		fail("dial: %v", err)
		return res
	}
	defer cl.Close()
	if tenant != "" {
		if err := cl.SetTenant(tenant); err != nil {
			fail("set tenant %q: %v", tenant, err)
			return res
		}
	}
	rv, err := cl.OpenView(view)
	if err != nil {
		fail("open view: %v", err)
		return res
	}
	var lv *sampleview.View
	if check != "" {
		if lv, err = sampleview.Open(check, sampleview.Options{}); err != nil {
			fail("open check view: %v", err)
			return res
		}
		defer lv.Close()
	}
	qg := workload.NewQueryGen(seed)
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))

	for op := 0; op < ops; op++ {
		sel := selectivities[op%len(selectivities)]
		var q record.Box
		if dims >= 2 {
			q = qg.Box2D(sel)
		} else {
			q = qg.Range1D(sel)
		}

		// Open the stream, retrying briefly on admission rejections so a
		// saturated server degrades to queueing, not errors.
		var s *server.RemoteStream
		for attempt := 0; ; attempt++ {
			s, err = rv.Query(q)
			if err == nil {
				break
			}
			if server.IsAdmissionReject(err) && attempt < 50 {
				res.rejections++
				time.Sleep(time.Duration(1+rng.Int64N(4)) * time.Millisecond)
				continue
			}
			fail("op %d: open stream: %v", op, err)
			return res
		}
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		s.SetBatchSize(batchSize)

		var local *sampleview.Stream
		if lv != nil {
			if local, err = lv.Query(q); err != nil {
				fail("op %d: local stream: %v", op, err)
				live.Add(-1)
				return res
			}
		}
		seen := make(map[uint64]struct{}, samples)
		got := 0
		for got < samples {
			recs, err := s.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				fail("op %d: next batch: %v", op, err)
				break
			}
			for i := range recs {
				if !q.ContainsRecord(&recs[i]) {
					fail("op %d: record seq %d outside the predicate", op, recs[i].Seq)
				}
				if _, dup := seen[recs[i].Seq]; dup {
					fail("op %d: duplicate seq %d (not without-replacement)", op, recs[i].Seq)
				}
				seen[recs[i].Seq] = struct{}{}
				if local != nil {
					want, lerr := local.Next()
					if lerr != nil {
						fail("op %d: local stream ended early: %v", op, lerr)
					} else if want != recs[i] {
						fail("op %d: record %d diverges from the in-process stream (remote seq %d, local seq %d)",
							op, got+i, recs[i].Seq, want.Seq)
					}
				}
			}
			got += len(recs)
		}
		res.records += int64(got)
		res.ops++
		s.Close()
		live.Add(-1)
	}
	return res
}
