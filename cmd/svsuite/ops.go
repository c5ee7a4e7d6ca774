package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sampleview/internal/record"
	"sampleview/internal/stats"
	"sampleview/internal/workload"
)

// The uniformity check pools, per selectivity class, where in its predicate
// each of an op's first ttfMark samples fell, over chiBuckets equal key
// slices. A run is incorrect when any pooled slice deviates from its exact
// expected share by more than maxBucketDev. The verdict is an effect size,
// not a p-value, for two reasons the first baseline showed. The driver runs
// the benchmark on dozens of fresh seeds per change, so any significance
// level either flakes or is too loose to mean anything. And on an unsharded
// view with an empty write path the seed code itself fails the chi-square at
// any level (p < 1e-30 on the 2.5% class): core emits a stab's records in
// key order and only stab boundaries are uniform prefixes, so a cut at the
// 1000th record leans about 6% toward low keys. The sharded and delta-merged
// paths shuffle each stab and pass. The p-value is still reported
// (check.chi2_min_p), so a change that fixes the lean shows.
const (
	chiBuckets    = 16
	maxBucketDev  = 0.15
	minClassCount = 1000 * chiBuckets // pooled samples below which a class is not judged
)

// opSpec is one read op: the k-th op of a client, with its predicate.
type opSpec struct {
	client int
	k      int
	q      record.Box
}

func (o opSpec) id() int64 { return int64(o.client)<<32 | int64(o.k) }

// class is the op's selectivity class (index into selectivities).
func (o opSpec) class() int { return o.k % len(selectivities) }

// opGen yields a client's ops in order. The list has no end and no repeats:
// each predicate is a fresh draw, so a run that lasts longer simply goes
// further down the same list.
type opGen struct {
	client int
	k      int
	qg     *workload.QueryGen
}

func newOpGen(seed uint64, client int) *opGen {
	return &opGen{client: client, qg: workload.NewQueryGen(seed + uint64(client)*7919)}
}

func (g *opGen) next() opSpec {
	o := opSpec{client: g.client, k: g.k, q: g.qg.Range1D(selectivities[g.k%len(selectivities)])}
	g.k++
	return o
}

// opList returns the first n ops of a client.
func opList(seed uint64, client, n int) []opSpec {
	g := newOpGen(seed, client)
	ops := make([]opSpec, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// sampler is what a read op drives: one stream behind whatever stack the
// workload measures. pull returns io.EOF (with or without records) when the
// predicate is exhausted.
type sampler interface {
	open(q record.Box) error
	pull(n int) ([]record.Record, error)
	close() error
}

// opResult is what one read op observed.
type opResult struct {
	spec    opSpec
	n       int           // records delivered
	ttf     time.Duration // wall time from before open to the ttfMark-th sample (or the last, if fewer exist)
	dur     time.Duration
	seqHash uint64 // FNV-1a over the delivered Seq sequence
	first   [chiBuckets]int64
	err     string // empty when the op passed
}

// seqSet is a reusable membership set over record sequence numbers, used to
// catch a Seq delivered twice in one stream without allocating per op.
type seqSet struct {
	bits []uint64
	set  []uint64 // seqs marked since the last reset
}

func newSeqSet(maxSeq int) *seqSet { return &seqSet{bits: make([]uint64, maxSeq/64+1)} }

// add marks seq and reports whether it was new. A seq beyond the set's
// domain is reported as a repeat: the system invented a record.
func (s *seqSet) add(seq uint64) bool {
	w := seq / 64
	if w >= uint64(len(s.bits)) {
		return false
	}
	m := uint64(1) << (seq % 64)
	if s.bits[w]&m != 0 {
		return false
	}
	s.bits[w] |= m
	s.set = append(s.set, seq)
	return true
}

func (s *seqSet) reset() {
	for _, seq := range s.set {
		s.bits[seq/64] = 0
	}
	s.set = s.set[:0]
}

// probe is where a read op reports as it runs: spans to the tracer under the
// two names (a nil tracer drops them), delivered records to the counter of
// the pass's meter (nil outside a measured pass).
type probe struct {
	tr                 *tracer
	openSpan, pullSpan string
	delivered          *atomic.Int64
}

// runOp executes one read op against sm: open, pull to budget samples or
// EOF, close; it checks every record as it arrives. minPop is the least
// number of records the predicate is known to match, so an early EOF is
// caught.
func runOp(sm sampler, o opSpec, budget int, seen *seqSet, minPop int, pb probe) opResult {
	tr, openSpan, pullSpan := pb.tr, pb.openSpan, pb.pullSpan
	res := opResult{spec: o}
	fail := func(format string, args ...any) {
		if res.err == "" {
			res.err = fmt.Sprintf(format, args...)
		}
	}
	seen.reset()
	h := fnv.New64a()
	var seqBuf [8]byte
	rng := o.q.Dim(0)
	width := rng.Width()
	want := min(budget, minPop)
	mark := min(ttfMark, want)

	start := time.Now()
	root := tr.begin(o.id(), o.q, start)
	err := sm.open(o.q)
	opened := time.Now()
	tr.add(openSpan, o.id(), root, start, opened)
	if err != nil {
		fail("open: %v", err)
		tr.end(root, o.q, opened)
		res.dur = opened.Sub(start)
		return res
	}
	eof := false
	for res.n < budget && !eof {
		t0 := time.Now()
		recs, err := sm.pull(pullBatch)
		t1 := time.Now()
		tr.add(pullSpan, o.id(), root, t0, t1)
		if err == io.EOF {
			eof = true
		} else if err != nil {
			fail("pull: %v", err)
			break
		}
		for i := range recs {
			r := &recs[i]
			if !o.q.ContainsRecord(r) {
				fail("record seq %d key %d outside %v", r.Seq, r.Key, o.q)
			}
			if !seen.add(r.Seq) {
				fail("duplicate or unknown seq %d", r.Seq)
			}
			if res.n+i < ttfMark {
				b := int(float64(r.Key-rng.Lo) * chiBuckets / width)
				if b >= 0 && b < chiBuckets {
					res.first[b]++
				}
			}
			binary.LittleEndian.PutUint64(seqBuf[:], r.Seq)
			h.Write(seqBuf[:])
		}
		if res.n < mark && res.n+len(recs) >= mark {
			res.ttf = t1.Sub(start)
		}
		res.n += len(recs)
		if pb.delivered != nil {
			pb.delivered.Add(int64(len(recs)))
		}
		if t1.Sub(start) > opTimeout {
			fail("op exceeded %v", opTimeout)
			break
		}
		if len(recs) == 0 && !eof {
			fail("empty pull without EOF")
			break
		}
	}
	if err := sm.close(); err != nil {
		fail("close: %v", err)
	}
	end := time.Now()
	tr.end(root, o.q, end)
	res.dur = end.Sub(start)
	res.seqHash = h.Sum64()
	if res.n < want {
		fail("delivered %d records, predicate matches at least %d", res.n, want)
	}
	if res.ttf == 0 {
		res.ttf = res.dur
	}
	return res
}

// clientRun is everything one closed-loop client did.
type clientRun struct {
	ops []opResult
	err error // the client could not run at all (dial, open view)
}

// runClosedLoop starts n clients, each running its own op list back to back
// against the sampler mk gives it, every op pulling budget samples, until the
// deadline has passed and every client has completed at least sc.digestOps
// ops (sc.maxOps, when set, ends a client early). It returns per-client
// results.
func runClosedLoop(n, budget int, seed uint64, sc scale, window time.Duration, minPop func(record.Box) int,
	maxSeq int, pb probe, mk func(client int) (sampler, func(), error)) []clientRun {
	runs := make([]clientRun, n)
	samplers := make([]sampler, n)
	for c := 0; c < n; c++ {
		sm, done, err := mk(c)
		if err != nil {
			runs[c].err = err
			continue
		}
		defer done()
		samplers[c] = sm
	}
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for c := 0; c < n; c++ {
		if samplers[c] == nil {
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newOpGen(seed, c)
			seen := newSeqSet(maxSeq)
			for k := 0; ; k++ {
				if k >= sc.digestOps && (time.Now().After(deadline) || (sc.maxOps > 0 && k >= sc.maxOps)) {
					return
				}
				o := gen.next()
				runs[c].ops = append(runs[c].ops, runOp(samplers[c], o, budget, seen, minPop(o.q), pb))
			}
		}(c)
	}
	wg.Wait()
	return runs
}

// readTotals folds client runs into the counts every workload reports.
type readTotals struct {
	attempted, failed int
	records           int64
	ttf               []time.Duration
	firstErrs         []string
	digest            uint64
	ops               []opResult
}

func totalReads(runs []clientRun, sc scale) readTotals {
	var t readTotals
	h := fnv.New64a()
	for c := range runs {
		if runs[c].err != nil {
			t.attempted++
			t.failed++
			t.firstErrs = append(t.firstErrs, fmt.Sprintf("client %d: %v", c, runs[c].err))
			continue
		}
		for k := range runs[c].ops {
			r := &runs[c].ops[k]
			t.attempted++
			t.records += int64(r.n)
			t.ttf = append(t.ttf, r.ttf)
			if r.err != "" {
				t.failed++
				if len(t.firstErrs) < 5 {
					t.firstErrs = append(t.firstErrs, fmt.Sprintf("client %d op %d %v: %s", c, k, r.spec.q, r.err))
				}
			}
			if k < sc.digestOps {
				fmt.Fprintf(h, "%d/%d:%016x;", c, k, r.seqHash)
			}
			t.ops = append(t.ops, *r)
		}
	}
	t.digest = h.Sum64()
	return t
}

// uniformity pools, per selectivity class, the bucket positions of each op's
// first ttfMark samples against the exact bucket shares of the harness's own
// model of the data (every sorted key slice given). Over the classes with
// enough samples it returns the smallest chi-square p-value and the largest
// relative deviation of a pooled bucket from its expectation.
func uniformity(ops []opResult, models ...[]int64) (minP, maxDev float64, err error) {
	minP = 1.0
	for class := range selectivities {
		var observed [chiBuckets]int64
		var expected [chiBuckets]float64
		var total int64
		for i := range ops {
			r := &ops[i]
			if r.spec.class() != class {
				continue
			}
			var n int64
			for _, c := range r.first {
				n += c
			}
			if n == 0 {
				continue
			}
			rng := r.spec.q.Dim(0)
			var pop [chiBuckets]float64
			var popTotal float64
			for b := 0; b < chiBuckets; b++ {
				// Bucket b holds the keys whose scaled position floors to b,
				// the same arithmetic runOp applies to each record.
				lo := rng.Lo + int64(math.Ceil(float64(b)*rng.Width()/chiBuckets))
				hi := rng.Lo + int64(math.Ceil(float64(b+1)*rng.Width()/chiBuckets)) - 1
				for _, m := range models {
					pop[b] += float64(countIn(m, lo, hi))
				}
				popTotal += pop[b]
			}
			if popTotal == 0 {
				continue
			}
			for b := 0; b < chiBuckets; b++ {
				observed[b] += r.first[b]
				expected[b] += float64(n) * pop[b] / popTotal
			}
			total += n
		}
		if total < minClassCount {
			continue
		}
		p, err := stats.ChiSquarePValue(observed[:], expected[:])
		if err != nil {
			return 0, 0, err
		}
		minP = min(minP, p)
		for b := range observed {
			maxDev = max(maxDev, math.Abs(float64(observed[b])/expected[b]-1))
		}
	}
	return minP, maxDev, nil
}
