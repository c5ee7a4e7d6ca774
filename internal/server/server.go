package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sampleview"
	"sampleview/internal/catalog"
	"sampleview/internal/lsm"
	"sampleview/internal/record"
	"sampleview/internal/shard"
)

// Config tunes the server's admission control and housekeeping. The zero
// value gets sensible defaults from withDefaults.
type Config struct {
	// MaxStreams caps concurrently open streams server-wide. An open-stream
	// request past the cap receives a typed CodeServerStreams rejection
	// (default 256).
	MaxStreams int
	// MaxStreamsPerConn caps open streams per connection; past it the
	// request receives CodeConnStreams (default 16).
	MaxStreamsPerConn int
	// MaxStreamsPerTenant caps open streams per tenant, summed over every
	// connection attributed to that tenant with a set-tenant frame; past it
	// the request receives CodeTenantStreams. Connections that never set a
	// tenant are each their own accounting unit, which preserves the
	// pre-fleet per-connection semantics. Defaults to MaxStreams — the old
	// server-wide flag doubles as the fleet-wide per-tenant default.
	MaxStreamsPerTenant int
	// ReplicaID names this server in a fleet; it travels in replica-info
	// responses so a router can identify and health-check its replicas.
	// Empty outside a fleet.
	ReplicaID string
	// MaxBatch caps records per batch response. Larger client requests are
	// clamped, bounding per-request buffering — backpressure comes from the
	// strict request/response alternation, not from queues (default 4096,
	// and never more than fits a frame).
	MaxBatch int
	// IdleTimeout reaps streams idle for longer than this on the simulated
	// disk clock of the view they sample: a stream is idle once the view's
	// simulated time has advanced IdleTimeout past the stream's last
	// request, which only happens while other streams do I/O. Reaping runs
	// only when an open-stream request finds the server-wide cap exhausted
	// — the one moment an abandoned stream's slot hurts — so streams on an
	// uncontended server are never collected, however busy the shared
	// clock. Zero disables reaping.
	IdleTimeout time.Duration
	// RequestTimeout bounds, in wall-clock time, how long one request may
	// occupy the session loop once its frame header has arrived: the rest
	// of the frame must be read, the request handled and the response
	// fully written before the deadline, or the connection is closed. It
	// guards the serving loop against stalled and hostile peers (slow-loris
	// frames, dead TCP peers mid-response), which the simulated clock
	// cannot see. Zero disables per-request deadlines.
	RequestTimeout time.Duration
	// MaxWriteBacklog is write-path admission control: an append or delete
	// against a view whose in-memory buffer already holds this many entries
	// (records plus pending tombstones) receives a typed CodeWriteBacklog
	// rejection instead of growing the buffer without bound. Backlog drains
	// when the view flushes — explicitly, or via catalog maintenance in the
	// gaps between request bursts (default 65536).
	MaxWriteBacklog int
	// WriteRate is per-tenant write-rate admission: a tenant's appends and
	// deletes — across all of its connections — draw from one token bucket
	// refilled at this many entries per second. Connections that never set
	// a tenant each get their own bucket (the pre-fleet per-connection
	// behaviour). A batch that finds the bucket dry receives a typed
	// CodeWriteThrottled rejection before anything is applied, so the
	// client can safely retry the identical batch. 0 disables rate
	// admission.
	WriteRate float64
	// WriteBurst is the token bucket's capacity: the largest write burst one
	// tenant may land instantly. Defaults to max(WriteRate, MaxBatch)
	// when rate admission is on, so a full-size batch is always admittable.
	WriteBurst int
}

// maxBatchLimit is the largest batch that fits one frame with headroom for
// the batch response envelope.
const maxBatchLimit = (MaxFrame - 64) / record.Size

func (c Config) withDefaults() Config {
	if c.MaxStreams <= 0 {
		c.MaxStreams = 256
	}
	if c.MaxStreamsPerConn <= 0 {
		c.MaxStreamsPerConn = 16
	}
	if c.MaxStreamsPerTenant <= 0 {
		c.MaxStreamsPerTenant = c.MaxStreams
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxBatch > maxBatchLimit {
		c.MaxBatch = maxBatchLimit
	}
	if c.MaxWriteBacklog <= 0 {
		c.MaxWriteBacklog = 65536
	}
	if c.WriteRate > 0 && c.WriteBurst <= 0 {
		c.WriteBurst = c.MaxBatch
		if r := int(c.WriteRate); r > c.WriteBurst {
			c.WriteBurst = r
		}
	}
	return c
}

// ViewStream is the per-stream surface the serving layer drives: batch
// pulls, teardown, and the simulated time used for idle accounting. The
// slice Sample returns is the stream's to reuse: it is valid until the next
// Sample on that stream and no longer (the session encodes it into the
// response frame before it asks again). Close may come from the idle reaper
// while a batch is still being encoded, so it must leave the last batch
// alone; one goroutine at a time calls Sample.
type ViewStream interface {
	Sample(n int) ([]record.Record, error)
	Close() error
	SimNow() time.Duration
}

// ViewSource abstracts a servable view — unsharded or sharded — behind the
// exact surface the request handlers need.
type ViewSource interface {
	Dims() int
	Height() int
	Count() int64
	EstimateCount(record.Box) (float64, error)
	SimNow() time.Duration
	OpenStream(record.Box) (ViewStream, error)
}

// WritableSource is the optional write surface of a ViewSource. Sources
// backed by a live write path (the unsharded and sharded views both are)
// implement it; append, delete and flush requests against a source that
// does not receive a typed CodeReadOnly rejection.
type WritableSource interface {
	Insert(rec record.Record) error
	Delete(rec record.Record) error
	Flush() error
	// Commit blocks until every write accepted so far is durable in the
	// view's write-ahead log (a no-op for views running without one). The
	// handlers call it before acking an append or delete batch, so an ack
	// always means "survives a crash".
	Commit() error
	// WriteStats snapshots the write-path counters; the handlers use the
	// in-memory buffer size for backlog admission and the stats frame
	// aggregates the rest.
	WriteStats() lsm.WriteStats
}

// SeededSource is the optional seeded-open surface of a ViewSource: a
// stream whose randomness is pinned to an explicit seed, so replicas
// holding byte-identical view state serve byte-identical sample sequences
// for the same (query, seed). Both built-in sources implement it; seeded
// open requests against a source that does not are refused.
type SeededSource interface {
	OpenStreamSeeded(q record.Box, seed uint64) (ViewStream, error)
}

// batchStream is what the built-in sources open: an in-process stream
// (unsharded or sharded), drawn a batch at a time into one record buffer
// that lives as long as the stream.
type batchStream struct {
	drawer
	// buf is the batch Sample lent last. It belongs to this object — plain
	// garbage-collected memory, never the recycled working memory the
	// stream's Close hands on to the next stream — because the reaper may
	// Close the stream while the session is still encoding buf.
	buf []record.Record
}

// drawer is the batch-draw surface sampleview.Stream and shard.Stream share.
type drawer interface {
	AppendSample(dst []record.Record, n int) ([]record.Record, error)
	Close() error
	SimNow() time.Duration
}

func (b *batchStream) Sample(n int) ([]record.Record, error) {
	var err error
	b.buf, err = b.AppendSample(b.buf[:0], n)
	return b.buf, err
}

// lend wraps a freshly opened stream (or passes the open's error on).
func lend(s drawer, err error) (ViewStream, error) {
	if err != nil {
		return nil, err
	}
	return &batchStream{drawer: s}, nil
}

// localSource adapts an in-process unsharded view to ViewSource.
type localSource struct{ *sampleview.View }

func (v localSource) OpenStream(q record.Box) (ViewStream, error) { return lend(v.View.Query(q)) }

func (v localSource) OpenStreamSeeded(q record.Box, seed uint64) (ViewStream, error) {
	return lend(v.View.QuerySeeded(q, seed))
}

// shardedSource adapts a multi-disk sharded view to ViewSource.
type shardedSource struct{ *shard.View }

func (v shardedSource) OpenStream(q record.Box) (ViewStream, error) { return lend(v.View.Query(q)) }

func (v shardedSource) OpenStreamSeeded(q record.Box, seed uint64) (ViewStream, error) {
	return lend(v.View.QuerySeeded(q, seed))
}

// LocalSource adapts an unsharded view for AddSource.
func LocalSource(v *sampleview.View) ViewSource { return localSource{v} }

// ShardedSource adapts a sharded view for AddSource.
func ShardedSource(v *shard.View) ViewSource { return shardedSource{v} }

// Both built-in sources carry the live write path and the seeded opens the
// fleet tier's migration relies on.
var (
	_ WritableSource = localSource{}
	_ WritableSource = shardedSource{}
	_ SeededSource   = localSource{}
	_ SeededSource   = shardedSource{}
)

// servedView is one view registered with the server.
type servedView struct {
	id   uint32
	name string
	v    ViewSource
	// fromCatalog marks views resolved lazily through the hosted catalog, so
	// list-views does not report them twice.
	fromCatalog bool
}

// Server multiplexes client sessions over a set of served sample views: it
// is an Engine — Serve, Shutdown and Snapshot are the engine's — over the
// views registered here. Create one with New, register views with AddView,
// then run Serve on one or more listeners. All methods are safe for
// concurrent use.
type Server struct {
	*Engine

	mu        sync.Mutex
	views     map[string]*servedView // guarded by mu
	viewsByID map[uint32]*servedView // guarded by mu
	catalog   *catalog.Catalog       // guarded by mu
	nextView  uint32                 // guarded by mu

	maintJobs      atomic.Int64 // catalog background jobs run between request bursts
	maintJobErrors atomic.Int64 // catalog background jobs that failed
}

// New returns a server with the given configuration and no views.
func New(cfg Config) *Server {
	s := &Server{
		views:     make(map[string]*servedView),
		viewsByID: make(map[uint32]*servedView),
	}
	s.Engine = NewEngine(endpoint{s}, cfg.withDefaults())
	return s
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// AddView registers v under name. Clients resolve it with an open-view
// request. Registering a name twice replaces the old registration for new
// open-view requests; streams already open keep sampling the view they
// started on.
func (s *Server) AddView(name string, v *sampleview.View) {
	s.AddSource(name, localSource{v})
}

// AddSource registers any ViewSource (for example ShardedSource) under
// name, with the same replacement semantics as AddView.
func (s *Server) AddSource(name string, v ViewSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(&servedView{name: name, v: v})
}

// addLocked gives sv the next view id and registers it. Callers hold s.mu.
func (s *Server) addLocked(sv *servedView) *servedView {
	s.nextView++
	sv.id = s.nextView
	s.views[sv.name] = sv
	s.viewsByID[sv.id] = sv
	return sv
}

// SetCatalog hosts a view catalog on the server: open-view requests fall
// through to it by name, list-views reports its registry, and its due
// background jobs (compaction, checksum scrubs) run in the gaps between
// request bursts — whenever the last in-flight request finishes.
func (s *Server) SetCatalog(c *catalog.Catalog) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.catalog = c
}

// viewByID resolves a view id an open-view response handed out.
func (s *Server) viewByID(id uint32) (*servedView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.viewsByID[id]
	if !ok {
		return nil, &Error{Code: CodeUnknownView, Msg: "unknown view id"}
	}
	return sv, nil
}

// endpoint is the server as its engine sees it: local views behind the
// Endpoint surface.
type endpoint struct{ *Server }

// streamErr types a view-layer failure for the wire: clients retry
// transients and tolerate degradation instead of treating either as a
// server bug.
func streamErr(err error) error {
	code := CodeInternal
	switch {
	case errors.Is(err, sampleview.ErrStreamClosed):
		// Lost a race with the reaper between the stream lookup and the draw.
		return &Error{Code: CodeStreamReaped, Msg: "stream reaped after simulated-clock idle timeout"}
	case sampleview.IsTransient(err):
		code = CodeTransient
	case sampleview.IsDegraded(err):
		code = CodeDegraded
	}
	return &Error{Code: code, Msg: err.Error()}
}

// OpenView resolves a view by name. A name missing from the static registry
// falls through to the hosted catalog; the resolution is cached so streams
// opened against it keep a stable view id.
func (s endpoint) OpenView(name string) (ViewInfo, error) {
	s.mu.Lock()
	sv, ok := s.views[name]
	if !ok && s.catalog != nil {
		var v *shard.View
		if v, ok = s.catalog.Get(name); ok {
			sv = s.addLocked(&servedView{name: name, v: shardedSource{v}, fromCatalog: true})
		}
	}
	s.mu.Unlock()
	if !ok {
		return ViewInfo{}, &Error{Code: CodeUnknownView, Msg: "no served view named " + name}
	}
	return ViewInfo{
		ViewID: sv.id,
		Dims:   uint8(sv.v.Dims()),
		Height: uint8(sv.v.Height()),
		Count:  sv.v.Count(),
	}, nil
}

// checkQuery resolves the view a stream or estimate request names and checks
// the predicate against its shape.
func (s endpoint) checkQuery(viewID uint32, q record.Box) (*servedView, error) {
	sv, err := s.viewByID(viewID)
	if err == nil && q.Dims() != sv.v.Dims() {
		err = &Error{Code: CodeBadRequest, Msg: "query dimensions do not match the view"}
	}
	return sv, err
}

func (s endpoint) OpenStream(_, _ string, req OpenStreamReq) (EndpointStream, error) {
	sv, err := s.checkQuery(req.ViewID, req.Query)
	if err != nil {
		return nil, err
	}
	var stream ViewStream
	if !req.Seeded {
		stream, err = sv.v.OpenStream(req.Query)
	} else if seeded, ok := sv.v.(SeededSource); ok {
		stream, err = seeded.OpenStreamSeeded(req.Query, req.Seed)
	} else {
		return nil, &Error{Code: CodeBadRequest, Msg: "view " + sv.name + " does not support seeded streams"}
	}
	if err != nil {
		// Opening a stream on a view with a live write path scans delta
		// pages, so storage faults can strike here too.
		return nil, streamErr(err)
	}
	ls := &localStream{s: stream, view: sv.v}
	// A migrated or hedged stream resumes mid-sequence: fast-forward past
	// the prefix the client already holds. A failure here closes the stream
	// and surfaces typed, so the router can retry the open elsewhere.
	if err := ls.skipTo(req.StartPos); err != nil {
		stream.Close()
		return nil, streamErr(err)
	}
	return ls, nil
}

func (s endpoint) Estimate(req EstimateReq) (float64, error) {
	sv, err := s.checkQuery(req.ViewID, req.Query)
	if err != nil {
		return 0, err
	}
	est, err := sv.v.EstimateCount(req.Query)
	if err != nil {
		return 0, streamErr(err)
	}
	return est, nil
}

// writable runs write-path admission for n incoming entries against a view:
// the source must be writable, and its in-memory buffer (records plus
// pending tombstones) must have room under the server's backlog cap. It
// returns the writable surface and how many entries the buffer holds.
func (s endpoint) writable(viewID uint32, n int) (WritableSource, int64, error) {
	sv, err := s.viewByID(viewID)
	if err != nil {
		return nil, 0, err
	}
	w, ok := sv.v.(WritableSource)
	if !ok {
		return nil, 0, &Error{Code: CodeReadOnly, Msg: "view " + sv.name + " is read-only"}
	}
	ws := w.WriteStats()
	backlog := ws.MemViewRecords + ws.MemViewTombstones
	if n > 0 && backlog+int64(n) > int64(s.cfg.MaxWriteBacklog) {
		return nil, 0, &Error{Code: CodeWriteBacklog, Msg: fmt.Sprintf(
			"write backlog %d + batch %d over cap %d; flush pending", backlog, n, s.cfg.MaxWriteBacklog)}
	}
	return w, backlog, nil
}

func (s endpoint) Write(op FrameType, req WriteReq) (uint32, error) {
	w, _, err := s.writable(req.ViewID, len(req.Records))
	if err != nil {
		return 0, err
	}
	verb, apply := "append", w.Insert
	if op == FDeleteRecs {
		verb, apply = "delete", w.Delete
	}
	// Entries are applied in order; the first failure stops the batch and
	// reports it, with the count applied telling how far the batch got (the
	// earlier entries are already in the memview).
	for i := range req.Records {
		if err := apply(req.Records[i]); err != nil {
			return uint32(i), &Error{Code: CodeInternal, Msg: fmt.Sprintf("%s record %d of %d: %v", verb, i, len(req.Records), err)}
		}
	}
	// The ack is a durability promise: group-commit the batch before
	// sending it, so an acked append or tombstone survives a crash.
	if err := w.Commit(); err != nil {
		return 0, &Error{Code: CodeInternal, Msg: fmt.Sprintf("%s commit: %v", verb, err)}
	}
	return uint32(len(req.Records)), nil
}

func (s endpoint) Flush(viewID uint32) (uint32, error) {
	w, buffered, err := s.writable(viewID, 0)
	if err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		if sampleview.IsTransient(err) {
			return 0, &Error{Code: CodeTransient, Msg: err.Error()}
		}
		return 0, err
	}
	if buffered < 0 || buffered > int64(^uint32(0)) {
		buffered = 0
	}
	return uint32(buffered), nil
}

// ListViews reports every servable view: statically registered ones plus
// the hosted catalog's registry, sorted by name.
func (s endpoint) ListViews() ([]ViewListEntry, error) {
	s.mu.Lock()
	c := s.catalog
	static := make([]*servedView, 0, len(s.views))
	for _, sv := range s.views {
		if !sv.fromCatalog {
			static = append(static, sv)
		}
	}
	s.mu.Unlock()
	out := make([]ViewListEntry, 0, len(static))
	for _, sv := range static {
		out = append(out, ViewListEntry{Name: sv.name, Count: sv.v.Count(), Health: "ok"})
	}
	if c != nil {
		for _, info := range c.List() {
			out = append(out, ViewListEntry{
				Name:      info.Name,
				Sharded:   true,
				K:         uint32(info.K),
				Partition: info.Partition.String(),
				Count:     info.Count,
				Health:    info.Health,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (s endpoint) Identity() (string, int) { return s.cfg.ReplicaID, s.cfg.MaxStreams }

func (s endpoint) TenantStreamCap(int) int { return s.cfg.MaxStreamsPerTenant }

// Idle offers the hosted catalog one maintenance slot: its background jobs
// (compaction, checksum scrubs) fill the gaps between request bursts instead
// of delaying live traffic. TryRunDueJobs backs off instead of blocking if
// the catalog is busy, so a request arriving concurrently is never queued
// behind a compaction.
func (s endpoint) Idle() {
	s.mu.Lock()
	c := s.catalog
	s.mu.Unlock()
	if c == nil {
		return
	}
	reports, ok := c.TryRunDueJobs()
	if !ok {
		return
	}
	for i := range reports {
		s.maintJobs.Add(1)
		if reports[i].Err != nil {
			s.maintJobErrors.Add(1)
		}
	}
}

// FillSnapshot adds the maintenance counters and the write-path gauges,
// aggregated over the servable views.
func (s endpoint) FillSnapshot(snap *StatsSnapshot) {
	snap.MaintJobs = s.maintJobs.Load()
	snap.MaintJobErrors = s.maintJobErrors.Load()
	s.mu.Lock()
	views := make([]*servedView, 0, len(s.views))
	for _, sv := range s.views {
		views = append(views, sv)
	}
	s.mu.Unlock()
	for _, sv := range views {
		w, ok := sv.v.(WritableSource)
		if !ok {
			continue
		}
		ws := w.WriteStats()
		snap.DeltaLevels = max(snap.DeltaLevels, ws.DeltaLevels)
		snap.MemViewRecords += ws.MemViewRecords
		snap.TombstonesPending += ws.TombstonesPending
		snap.CompactionsRun += ws.Compactions
		snap.WALBytes += ws.WALBytes
		snap.WALFsyncs += ws.WALFsyncs
		snap.WALReplayed += ws.WALReplayed
		snap.WALSegments += ws.WALSegments
	}
}

// localStream is one stream over a local view as the engine drives it: the
// ViewStream, the position it has reached, and a failure waiting to be told.
// Only the session's goroutine touches pos and deferred.
type localStream struct {
	s    ViewStream
	view ViewSource
	pos  int64
	// deferred is a hard stream failure observed while a partial batch was
	// being delivered; it is surfaced as a typed error on the stream's next
	// pull so the records already sampled are never dropped and the failure
	// is never lost.
	deferred error
}

// skipTo fast-forwards the stream to position target by sampling and
// discarding. Positions already passed are never revisited; a predicate
// that exhausts before target simply leaves the stream at its end. The
// position advances through partial progress, so a transient fault leaves
// the skip resumable exactly where it struck.
func (ls *localStream) skipTo(target int64) error {
	for ls.pos < target {
		// The stream lends its batch buffer and keeps it: skip batch-sized.
		chunk := min(target-ls.pos, 512)
		recs, err := ls.s.Sample(int(chunk))
		ls.pos += int64(len(recs))
		if err != nil {
			return err
		}
		if int64(len(recs)) < chunk {
			return nil // exhausted before target
		}
	}
	return nil
}

// Pull draws one batch. The records Sample returns are lent by the stream
// until its next Sample, and are encoded behind dst before this returns —
// the only use made of them.
func (ls *localStream) Pull(dst []byte, pos int64, max int) (RawBatch, error) {
	err := ls.deferred
	ls.deferred = nil
	if err == nil {
		err = ls.skipTo(pos)
	}
	if err != nil {
		return RawBatch{End: ls.pos}, streamErr(err)
	}
	recs, err := ls.s.Sample(max)
	ls.pos += int64(len(recs))
	if err != nil {
		if len(recs) == 0 || errors.Is(err, sampleview.ErrStreamClosed) {
			return RawBatch{End: ls.pos}, streamErr(err)
		}
		// A partial batch rode ahead of the failure. Deliver it — the
		// records are valid and acknowledged batches must never be dropped.
		// A transient fault needs nothing more: the stream made no further
		// progress and the next pull resumes at the faulted stab. A hard
		// failure is kept so the typed error surfaces on the stream's next
		// pull instead of vanishing.
		if !sampleview.IsTransient(err) {
			ls.deferred = err
		}
	}
	eof := err == nil && len(recs) < max
	body := BatchResp{EOF: eof, Records: recs, Pos: ls.pos}.AppendTo(dst)
	return RawBatch{Body: body, N: len(recs), EOF: eof, End: ls.pos}, nil
}

func (ls *localStream) Close() error { return ls.s.Close() }

func (ls *localStream) Clock() (used, now time.Duration) { return ls.s.SimNow(), ls.view.SimNow() }
