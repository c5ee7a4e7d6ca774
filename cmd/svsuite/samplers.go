package main

import (
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"sampleview"
	"sampleview/internal/iosim"
	"sampleview/internal/record"
	"sampleview/internal/server"
)

// localSampler drives View.Query / Stream.Sample in process. It pulls in
// the same batch size the wire clients request, so scan-local and serve-wire
// make the storage layers do identical work.
type localSampler struct {
	v     *sampleview.View
	s     *sampleview.Stream
	sim   time.Duration  // simulated I/O time charged by every stream this sampler closed
	reads iosim.Counters // page reads charged by those streams
}

func (l *localSampler) open(q record.Box) error {
	s, err := l.v.Query(q)
	l.s = s
	return err
}

func (l *localSampler) pull(n int) ([]record.Record, error) {
	recs, err := l.s.Sample(n)
	if err == nil && len(recs) < n {
		err = io.EOF
	}
	return recs, err
}

func (l *localSampler) close() error {
	l.sim += l.s.SimNow()
	addReads(&l.reads, l.s.Stats().Counters)
	return l.s.Close()
}

// addReads adds c's page reads to dst.
func addReads(dst *iosim.Counters, c iosim.Counters) {
	dst.RandomReads += c.RandomReads
	dst.SequentialReads += c.SequentialReads
}

// wireSampler drives a served view (directly or through a router) over one
// client connection.
type wireSampler struct {
	rv *server.RemoteView
	s  *server.RemoteStream
}

func (w *wireSampler) open(q record.Box) error {
	s, err := w.rv.Query(q)
	if err != nil {
		return err
	}
	s.SetBatchSize(pullBatch)
	w.s = s
	return nil
}

func (w *wireSampler) pull(int) ([]record.Record, error) { return w.s.NextBatch() }
func (w *wireSampler) close() error                      { return w.s.Close() }

// dialSampler connects one client to the view served under name at addr,
// attributing it to tenant when one is given.
func dialSampler(addr, name, tenant string) (sampler, func(), error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	if tenant != "" {
		if err := cl.SetTenant(tenant); err != nil {
			cl.Close()
			return nil, nil, err
		}
	}
	rv, err := cl.OpenView(name)
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	return &wireSampler{rv: rv}, func() { cl.Close() }, nil
}

// phase is the process-wide cost of one measured stretch of a run, whole
// and per slice. The per-slice medians are what the end-to-end metrics
// report: a neighbour stealing a core for a second moves one slice, not the
// run's number.
type phase struct {
	wall        time.Duration
	rate        float64 // records per second, median over slices
	cpuMsPerK   float64 // CPU milliseconds per thousand records, median over slices
	allocKBPerK float64 // KiB allocated per thousand records, median over slices
	rssMiB      float64 // resident set, median over the marks
}

// sliceLen is how often a measured stretch is sampled.
const sliceLen = time.Second

// mark is one sample of the process's running totals.
type mark struct {
	at        time.Time
	cpu       time.Duration
	alloc     uint64
	rss       float64
	delivered int64
}

func takeMark(delivered *atomic.Int64) mark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mark{at: time.Now(), cpu: cpuTime(), alloc: m.TotalAlloc, rss: statusMiB("VmRSS"), delivered: delivered.Load()}
}

// measure runs f, which adds every record its read ops deliver to the
// counter it is given, and returns what the whole process spent meanwhile.
// The totals are sampled every sliceLen; with fewer than three whole slices
// (smoke runs) the medians fall back to the totals.
func measure(f func(delivered *atomic.Int64)) phase {
	var delivered atomic.Int64
	marks := []mark{takeMark(&delivered)}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				marks = append(marks, takeMark(&delivered))
			}
		}
	}()
	f(&delivered)
	close(stop)
	<-done
	last := takeMark(&delivered)
	first := marks[0]
	rss := []float64{last.rss}
	for _, m := range marks {
		rss = append(rss, m.rss)
	}
	ks := float64(last.delivered) / 1000
	ph := phase{
		wall:        last.at.Sub(first.at),
		rate:        ratio(float64(last.delivered), last.at.Sub(first.at).Seconds()),
		cpuMsPerK:   ratio(ms(last.cpu-first.cpu), ks),
		allocKBPerK: ratio(float64(last.alloc-first.alloc)/1024, ks),
		rssMiB:      medianFloat(rss),
	}
	if len(marks) < 4 {
		return ph
	}
	var rates, cpus, allocs []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		k := float64(b.delivered-a.delivered) / 1000
		if k == 0 {
			continue
		}
		rates = append(rates, k*1000/b.at.Sub(a.at).Seconds())
		cpus = append(cpus, ms(b.cpu-a.cpu)/k)
		allocs = append(allocs, float64(b.alloc-a.alloc)/1024/k)
	}
	if len(rates) >= 3 {
		ph.rate, ph.cpuMsPerK, ph.allocKBPerK = medianFloat(rates), medianFloat(cpus), medianFloat(allocs)
	}
	return ph
}
