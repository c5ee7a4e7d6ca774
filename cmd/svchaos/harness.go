package main

// The shared harness every mode draws on: one per-stream checker, one
// chi-square gate over its key histogram, one loopback server, one report
// writer, and the closed-loop reader and writer fleet that the fault ladder
// and -connect both drive.

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/stats"
	"sampleview/internal/workload"
)

// selectivities is the paper's evaluation mix, cycled per operation.
var selectivities = []float64{0.0025, 0.025, 0.25}

// uniformityBuckets and minUniformitySample size the chi-square gate: at
// least ~10 expected records per bucket.
const (
	uniformityBuckets    = 16
	minUniformitySample  = 160
	uniformityAlpha      = 1e-3
	admissionRetryBudget = 50
	writeBatch           = 64
)

// checker verifies one stream's records as they arrive: each must equal its
// source record byte for byte (when the relation is known), fall inside the
// predicate, and carry a Seq the stream has not delivered before. It also
// buckets keys over the predicate's first dimension, clamped to the
// generated key domain, for the uniformity gate.
type checker struct {
	q         record.Box
	source    func(seq uint64) (record.Record, bool) // nil: relation unknown
	lo, width int64
	seen      map[uint64]struct{}
	hist      [uniformityBuckets]int64
	bad       []string
}

func newChecker(q record.Box, source func(uint64) (record.Record, bool)) *checker {
	kr := q.Dim(0)
	lo, hi := max(kr.Lo, 0), min(kr.Hi, workload.KeyDomain-1)
	return &checker{q: q, source: source, lo: lo, width: hi - lo + 1, seen: make(map[uint64]struct{})}
}

func (c *checker) add(recs ...record.Record) {
	for i := range recs {
		r := &recs[i]
		if c.source != nil {
			if src, ok := c.source(r.Seq); !ok || *r != src {
				c.bad = append(c.bad, fmt.Sprintf("record seq %d not in the source relation (phantom or silent corruption)", r.Seq))
				continue
			}
		}
		if !c.q.ContainsRecord(r) {
			c.bad = append(c.bad, fmt.Sprintf("record seq %d outside the predicate", r.Seq))
		}
		if _, dup := c.seen[r.Seq]; dup {
			c.bad = append(c.bad, fmt.Sprintf("duplicate seq %d (not without-replacement)", r.Seq))
		}
		c.seen[r.Seq] = struct{}{}
		if b := (r.Key - c.lo) * uniformityBuckets / c.width; b >= 0 && b < uniformityBuckets {
			c.hist[b]++
		}
	}
}

// uniformity is the chi-square gate over a key histogram; ok is false when
// it holds too few records to judge.
func uniformity(hist [uniformityBuckets]int64) (p float64, ok bool) {
	n := int64(0)
	for _, c := range hist {
		n += c
	}
	if n < minUniformitySample {
		return 0, false
	}
	p, err := stats.ChiSquareUniformPValue(hist[:])
	return p, err == nil
}

// serveLoopback serves an endpoint on a fresh loopback listener and returns
// its address; the caller shuts the endpoint down.
func serveLoopback(serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go serve(ln)
	return ln.Addr().String(), nil
}

// writeOut writes a mode's markdown report when -out names a file and the
// mode produced one.
func writeOut(path, report string) error {
	if path == "" || report == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

// printFirst prints the first five lines under label and counts the rest.
func printFirst(label string, lines []string) {
	for i, l := range lines {
		if i == 5 {
			fmt.Printf("    ... and %d more\n", len(lines)-5)
			return
		}
		fmt.Printf("    %s: %s\n", label, l)
	}
}

// failed reports a setup error; it returns false for the mode's verdict.
func failed(err error) bool {
	fmt.Fprintf(os.Stderr, "svchaos: %v\n", err)
	return false
}

// salt hashes a name into a seed salt.
func salt(name string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, name) // a hash's Write never fails
	return h.Sum64()
}

// traffic is one closed-loop run: clients readers each run ops queries of
// samples records, pulled in batches of batch, while ingest writers churn
// the view until the last reader finishes.
type traffic struct {
	addr, view                           string
	dims, tenants                        int
	clients, ops, samples, batch, ingest int
	seed, writeSeed                      uint64
	// source resolves a served Seq to the record it must equal. It is nil
	// when the relation is unknown (-connect); the uniformity gate is then
	// skipped too, since its buckets assume keys uniform over the domain.
	source func(uint64) (record.Record, bool)
}

// drive runs the readers and writers to completion and sums their results.
func (t *traffic) drive() profileResult {
	start := time.Now()
	readers := make([]profileResult, t.clients)
	writers := make([]profileResult, t.ingest)
	stop := make(chan struct{})
	var rwg, wwg sync.WaitGroup
	for c := range readers {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			readers[c] = t.runClient(c)
		}()
	}
	for w := range writers {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			writers[w] = t.runIngest(w, stop)
		}()
	}
	rwg.Wait()
	close(stop)
	wwg.Wait()

	res := profileResult{elapsed: time.Since(start)}
	for _, r := range append(readers, writers...) {
		res.records += r.records
		res.ops += r.ops
		res.retries += r.retries
		res.degEvents += r.degEvents
		res.pvalues = append(res.pvalues, r.pvalues...)
		res.pFailures += r.pFailures
		res.hardErrs = append(res.hardErrs, r.hardErrs...)
		res.badRecs = append(res.badRecs, r.badRecs...)
		res.appended += r.appended
		res.wdeleted += r.wdeleted
		res.flushes += r.flushes
		res.writeErrs = append(res.writeErrs, r.writeErrs...)
	}
	return res
}

// runIngest drives one writer connection until stop closes: append a fresh
// batch of records, tombstone the first half of every third batch, and
// flush every fifth iteration, so the write path churns — memview swaps,
// L0 flushes, compactions — while the readers sample. Backlog rejections
// are absorbed by flushing and retrying, transient faults by the client's
// retry policy; anything that still escapes is a writer error (tolerated
// only on lossy profiles).
func (t *traffic) runIngest(id int, stop <-chan struct{}) profileResult {
	var res profileResult
	fail := func(format string, args ...any) {
		res.writeErrs = append(res.writeErrs, fmt.Sprintf("writer %d: %s", id, fmt.Sprintf(format, args...)))
	}
	seed := t.writeSeed + uint64(id)*6700417
	cl, err := server.Dial(t.addr)
	if err != nil {
		fail("dial: %v", err)
		return res
	}
	defer cl.Close()
	cl.SetRetryPolicy(server.RetryPolicy{Seed: seed})
	rv, err := cl.OpenView(t.view)
	if err != nil {
		fail("open view: %v", err)
		return res
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	for iter := 0; ; iter++ {
		select {
		case <-stop:
			return res
		default:
		}
		// Claim a fresh Seq block and register the batch before sending it,
		// so a reader can never see an unregistered record.
		base := nextWriteSeq.Add(writeBatch) - writeBatch
		batch := make([]record.Record, writeBatch)
		for i := range batch {
			batch[i] = record.Record{
				Key:    rng.Int64N(workload.KeyDomain),
				Amount: rng.Int64N(workload.KeyDomain),
				Seq:    base + uint64(i),
			}
			writtenSet.Store(batch[i].Seq, batch[i])
		}
		for {
			n, err := rv.Append(batch)
			if err == nil {
				res.appended += int64(n)
				break
			}
			if server.IsWriteReject(err) {
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
			n, err := rv.Delete(batch[:writeBatch/2])
			if err != nil {
				fail("delete: %v", err)
				return res
			}
			res.wdeleted += int64(n)
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

// runClient drives reader c's connection through its operations, checking
// every delivered record. A client with a tenant declares it before any
// stream opens, so admission and accounting run under that identity.
func (t *traffic) runClient(c int) profileResult {
	var res profileResult
	fail := func(format string, args ...any) {
		res.hardErrs = append(res.hardErrs, fmt.Sprintf(format, args...))
	}
	seed := t.seed + uint64(c)*1000003
	cl, err := server.Dial(t.addr)
	if err != nil {
		fail("dial: %v", err)
		return res
	}
	defer cl.Close()
	cl.SetRetryPolicy(server.RetryPolicy{Seed: seed})
	if t.tenants > 0 {
		if err := cl.SetTenant(fmt.Sprintf("tenant-%02d", c%t.tenants)); err != nil {
			fail("set tenant: %v", err)
			return res
		}
	}
	rv, err := cl.OpenView(t.view)
	if err != nil {
		fail("open view: %v", err)
		return res
	}
	qg := workload.NewQueryGen(seed)
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))

	for op := 0; op < t.ops; op++ {
		sel := selectivities[op%len(selectivities)]
		var q record.Box
		if t.dims >= 2 {
			q = qg.Box2D(sel)
		} else {
			q = qg.Range1D(sel)
		}
		// Retry admission rejections briefly, so a saturated server degrades
		// to queueing, not errors.
		var s *server.RemoteStream
		for attempt := 0; ; attempt++ {
			s, err = rv.Query(q)
			if err == nil {
				break
			}
			if server.IsAdmissionReject(err) && attempt < admissionRetryBudget {
				time.Sleep(time.Duration(1+rng.Int64N(4)) * time.Millisecond)
				continue
			}
			fail("op %d: open stream: %v", op, err)
			return res
		}
		s.SetBatchSize(t.batch)

		ck := newChecker(q, t.source)
		got, opDegraded := 0, 0
		for got < t.samples {
			recs, err := s.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				if server.IsDegraded(err) {
					res.degEvents++ // typed, clean: the stream keeps serving
					if opDegraded++; opDegraded > 1000 {
						fail("op %d: stream wedged on degraded errors", op)
						break
					}
					continue
				}
				fail("op %d: next batch: %v", op, err)
				break
			}
			ck.add(recs...)
			got += len(recs)
		}
		for _, b := range ck.bad {
			res.badRecs = append(res.badRecs, fmt.Sprintf("op %d: %s", op, b))
		}
		// An op that lost a leaf may legitimately be non-uniform.
		if t.source != nil && opDegraded == 0 {
			if p, ok := uniformity(ck.hist); ok {
				res.pvalues = append(res.pvalues, p)
				if p < uniformityAlpha {
					res.pFailures++
				}
			}
		}
		res.records += int64(got)
		res.ops++
		s.Close()
	}
	res.retries = cl.Retries()
	return res
}

// runConnect drives the fleet against an external sv serve or sv route and
// dumps its counters. There is no fault ladder and no source relation, so
// the readers check the predicate and duplicates only.
func runConnect(t traffic) bool {
	probe, err := server.Dial(t.addr)
	if err != nil {
		return failed(err)
	}
	defer probe.Close()
	pv, err := probe.OpenView(t.view)
	if err != nil {
		return failed(err)
	}
	t.dims = pv.Dims()
	fmt.Printf("view %q at %s: %d records, %d dims; %d clients x %d ops x %d samples\n",
		t.view, t.addr, pv.Count(), t.dims, t.clients, t.ops, t.samples)
	res := t.drive()
	res.profile = "connect"
	snap, err := probe.ServerStats()
	if err != nil {
		return failed(fmt.Errorf("fetching server stats: %w", err))
	}
	res.transient, res.degFrames = snap.TransientErrors, snap.DegradedErrors
	ok := printProfile(&res, t.ingest)
	fmt.Println("server counters after the run:")
	snap.Dump(os.Stdout)
	return ok
}
