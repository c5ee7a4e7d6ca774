package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sampleview/internal/lsm"
	"sampleview/internal/record"
	"sampleview/internal/server"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer was created; Parent is the ID of the span that caused this one
// (0 for an op's root span) and Op the read or write op both belong to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer
// records nothing, which is how untraced runs share the code paths.
type tracer struct {
	t0 time.Time
	// on gates the server-side wrappers, which exist for the whole of a
	// traced run: while it is false they forward without timing anything,
	// so the run's untraced pass is not slowed by them.
	on atomic.Bool

	mu     sync.Mutex
	spans  []span                 // guarded by mu
	roots  map[record.Range]int64 // guarded by mu; op predicate -> root span ID
	prefix string                 // guarded by mu; prepended to the name of every span added
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), roots: make(map[record.Range]int64)}
}

// add records one finished span and returns its ID.
func (t *tracer) add(name string, op, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: t.prefix + name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// setEnabled switches the server-side wrappers on or off.
func (t *tracer) setEnabled(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// setPrefix marks every span added from now on as belonging to a side pass
// (the fleet workload's direct-to-replica pass), so its spans aggregate
// apart from the main pass's spans of the same layer.
func (t *tracer) setPrefix(p string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.prefix = p
}

// begin reserves the root span of a read op so child spans — including the
// ones a server-side wrapper records on another goroutine — can name it as
// their parent before it ends. Every op's predicate is drawn fresh from a
// 2^30 domain, so the box identifies the op.
func (t *tracer) begin(op int64, q record.Box, start time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Op: op, Name: "op", Start: int64(start.Sub(t.t0))})
	t.roots[q.Dim(0)] = id
	return id
}

// end closes a root span opened by begin.
func (t *tracer) end(id int64, q record.Box, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
	delete(t.roots, q.Dim(0))
}

// rootOf recovers the (root span, op) a server-side call belongs to from the
// predicate it was asked to sample.
func (t *tracer) rootOf(q record.Box) (root, op int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root = t.roots[q.Dim(0)]
	if root > 0 {
		op = t.spans[root-1].Op
	}
	return root, op
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, time.Duration(t.spans[i].End-t.spans[i].Start))
		}
	}
	return out
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile dumps every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedSource wraps the ViewSource a traced server hosts: every open and
// every batch pull the session layer makes is recorded as a span under the
// client op that caused it, so server self time is client round trip minus
// the source span inside it. It forwards the optional write and seeded-open
// surfaces, because the server and the fleet router discover those by type
// assertion and a wrapper that hid them would change what is measured.
type timedSource struct {
	server.ViewSource
	tr *tracer
}

var (
	_ server.WritableSource = timedSource{}
	_ server.SeededSource   = timedSource{}
)

func (s timedSource) OpenStream(q record.Box) (server.ViewStream, error) {
	return s.open(q, func() (server.ViewStream, error) { return s.ViewSource.OpenStream(q) })
}

func (s timedSource) OpenStreamSeeded(q record.Box, seed uint64) (server.ViewStream, error) {
	return s.open(q, func() (server.ViewStream, error) {
		return s.ViewSource.(server.SeededSource).OpenStreamSeeded(q, seed)
	})
}

func (s timedSource) open(q record.Box, open func() (server.ViewStream, error)) (server.ViewStream, error) {
	if !s.tr.on.Load() {
		return open()
	}
	root, op := s.tr.rootOf(q)
	start := time.Now()
	st, err := open()
	s.tr.add("source.open", op, root, start, time.Now())
	if err != nil {
		return nil, err
	}
	return &timedStream{ViewStream: st, tr: s.tr, root: root, op: op}, nil
}

func (s timedSource) writable() server.WritableSource {
	return s.ViewSource.(server.WritableSource)
}

func (s timedSource) Insert(rec record.Record) error { return s.writable().Insert(rec) }
func (s timedSource) Delete(rec record.Record) error { return s.writable().Delete(rec) }
func (s timedSource) Flush() error                   { return s.writable().Flush() }
func (s timedSource) Commit() error                  { return s.writable().Commit() }
func (s timedSource) WriteStats() lsm.WriteStats     { return s.writable().WriteStats() }

// timedStream records one span per Sample call the session layer makes.
type timedStream struct {
	server.ViewStream
	tr       *tracer
	root, op int64
}

func (s *timedStream) Sample(n int) ([]record.Record, error) {
	start := time.Now()
	recs, err := s.ViewStream.Sample(n)
	s.tr.add("source.sample", s.op, s.root, start, time.Now())
	return recs, err
}
