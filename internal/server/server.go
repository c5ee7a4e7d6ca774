package server

import (
	"fmt"
	"net"
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

// tenantState is one tenant's admission accounting: its open-stream count
// and its write-rate token bucket, shared across every connection
// attributed to the tenant. Connections without a tenant each get a
// private tenantState under a per-connection key, which reduces to the
// pre-fleet per-connection accounting.
type tenantState struct {
	// mu guards the admission tallies. It nests strictly inside Server.mu:
	// every acquisition happens while the server lock is held, which keeps
	// the tenant tally and the server-wide openStreams total moving in
	// lockstep.
	mu      sync.Mutex
	streams int // guarded by mu
	conns   int // guarded by mu; live sessions attributed via set-tenant

	// Write-rate token bucket (Config.WriteRate / WriteBurst). The bucket
	// starts full and refills continuously on the wall clock; tbLast is the
	// instant of the last draw.
	tbMu     sync.Mutex
	tbTokens float64   // guarded by tbMu
	tbLast   time.Time // guarded by tbMu
	tbInit   bool      // guarded by tbMu
}

// servedView is one view registered with the server.
type servedView struct {
	id   uint32
	name string
	v    ViewSource
	// fromCatalog marks views resolved lazily through the hosted catalog, so
	// list-views does not report them twice.
	fromCatalog bool
}

// Server multiplexes client sessions over a set of served sample views.
// Create one with New, register views with AddView, then run Serve on one
// or more listeners. All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	stats serverCounters

	mu          sync.Mutex
	views       map[string]*servedView  // guarded by mu
	viewsByID   map[uint32]*servedView  // guarded by mu
	sessions    map[*session]struct{}   // guarded by mu
	listeners   []net.Listener          // guarded by mu
	catalog     *catalog.Catalog        // guarded by mu
	tenants     map[string]*tenantState // guarded by mu; admission accounting per tenant key
	openStreams int                     // guarded by mu; admission-controlled total
	nextSession uint64                  // guarded by mu
	nextView    uint32                  // guarded by mu
	draining    bool                    // guarded by mu

	// inFlight counts requests currently being handled across all sessions;
	// background maintenance runs only when it drops to zero, so jobs fill
	// the gaps between request bursts instead of delaying live traffic.
	inFlight atomic.Int64

	wg       sync.WaitGroup
	shutOnce sync.Once
	done     chan struct{}
}

// New returns a server with the given configuration and no views.
func New(cfg Config) *Server {
	return &Server{
		cfg:       cfg.withDefaults(),
		views:     make(map[string]*servedView),
		viewsByID: make(map[uint32]*servedView),
		sessions:  make(map[*session]struct{}),
		tenants:   make(map[string]*tenantState),
		done:      make(chan struct{}),
	}
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
	s.nextView++
	sv := &servedView{id: s.nextView, name: name, v: v}
	s.views[name] = sv
	s.viewsByID[sv.id] = sv
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

// getCatalog returns the hosted catalog, if any.
func (s *Server) getCatalog() *catalog.Catalog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catalog
}

// runMaintenance offers the hosted catalog one maintenance slot. It is
// called when the server goes idle (the last in-flight request finished);
// TryRunDueJobs backs off instead of blocking if the catalog is busy, so
// a request arriving concurrently is never queued behind a compaction.
func (s *Server) runMaintenance() {
	c := s.getCatalog()
	if c == nil {
		return
	}
	reports, ok := c.TryRunDueJobs()
	if !ok {
		return
	}
	for i := range reports {
		s.stats.MaintJobs.Add(1)
		if reports[i].Err != nil {
			s.stats.MaintJobErrors.Add(1)
		}
	}
}

// listViews reports every servable view: statically registered ones plus
// the hosted catalog's registry, sorted by name.
func (s *Server) listViews() []ViewListEntry {
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
	return out
}

// Serve accepts connections on ln until the listener fails or Shutdown is
// called; Shutdown makes it return nil. Each connection gets a session
// goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.stats.ConnsAccepted.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown gracefully stops the server: listeners close, sessions finish
// the request they are serving (an in-flight batch is fully written before
// its connection closes — no acknowledged batch is ever dropped), idle
// sessions are disconnected, and Shutdown returns once every session
// goroutine has exited. It is idempotent; concurrent callers all block
// until the drain completes.
func (s *Server) Shutdown() {
	s.shutOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		lns := append([]net.Listener(nil), s.listeners...)
		sessions := make([]*session, 0, len(s.sessions))
		for sess := range s.sessions {
			sessions = append(sessions, sess)
		}
		s.mu.Unlock()

		for _, ln := range lns {
			ln.Close()
		}
		// drainClose waits for the session's in-flight request (if any) to
		// finish writing its response, then severs the connection so the
		// read loop unblocks.
		for _, sess := range sessions {
			sess.drainClose()
		}
		s.wg.Wait()
		close(s.done)
	})
	<-s.done
}

// register enrolls a new session; it fails once draining has started.
func (s *Server) register(sess *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.nextSession++
	sess.id = s.nextSession
	s.sessions[sess] = struct{}{}
	return true
}

func (s *Server) unregister(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	closed := sess.closeAllStreams()
	key, named := sess.tenantKey()
	s.releaseStreams(key, closed)
	s.dropTenant(key, named)
	s.stats.ConnsClosed.Add(1)
}

// lookupView resolves a view by name or id. A name missing from the static
// registry falls through to the hosted catalog; the resolution is cached so
// streams opened against it keep a stable view id.
func (s *Server) lookupView(name string) (*servedView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sv, ok := s.views[name]; ok {
		return sv, true
	}
	if s.catalog == nil {
		return nil, false
	}
	v, ok := s.catalog.Get(name)
	if !ok {
		return nil, false
	}
	s.nextView++
	sv := &servedView{id: s.nextView, name: name, v: shardedSource{v}, fromCatalog: true}
	s.views[name] = sv
	s.viewsByID[sv.id] = sv
	return sv, true
}

func (s *Server) lookupViewID(id uint32) (*servedView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.viewsByID[id]
	return sv, ok
}

// tenantKeyFor namespaces a tenant name so it can never collide with the
// per-connection fallback keys ("conn:<session id>").
func tenantKeyFor(name string) string { return "tenant:" + name }

// tenantLocked returns key's accounting bucket, creating it on first use.
// Callers hold s.mu.
func (s *Server) tenantLocked(key string) *tenantState {
	ts, ok := s.tenants[key]
	if !ok {
		ts = &tenantState{}
		s.tenants[key] = ts
	}
	return ts
}

// admitStream claims one server-wide stream slot and one slot of the given
// tenant key's cap. It returns a rejection code (and false) when the server
// is draining or either cap is reached.
func (s *Server) admitStream(key string) (uint16, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return CodeShuttingDown, false
	}
	if s.openStreams >= s.cfg.MaxStreams {
		return CodeServerStreams, false
	}
	ts := s.tenantLocked(key)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.streams >= s.cfg.MaxStreamsPerTenant {
		return CodeTenantStreams, false
	}
	s.openStreams++
	ts.streams++
	return 0, true
}

// releaseStreams returns n stream slots, server-wide and to the tenant key
// they were admitted under.
func (s *Server) releaseStreams(key string, n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.openStreams -= n
	if ts, ok := s.tenants[key]; ok {
		ts.mu.Lock()
		ts.streams -= n
		ts.mu.Unlock()
	}
	s.mu.Unlock()
}

// admitRate draws n entries from the tenant key's write-rate token bucket,
// reporting whether the batch is admitted. The bucket deliberately refills
// on the "wall clock": rate admission paces real client traffic, a pressure
// the simulated disk clock cannot see. Disabled (always true) when
// Config.WriteRate is 0.
func (s *Server) admitRate(key string, n int) bool {
	rate := s.cfg.WriteRate
	if rate <= 0 || n <= 0 {
		return true
	}
	s.mu.Lock()
	ts := s.tenantLocked(key)
	s.mu.Unlock()
	burst := float64(s.cfg.WriteBurst)
	ts.tbMu.Lock()
	defer ts.tbMu.Unlock()
	now := time.Now()
	if !ts.tbInit {
		ts.tbTokens, ts.tbInit = burst, true
	} else {
		ts.tbTokens += now.Sub(ts.tbLast).Seconds() * rate
		if ts.tbTokens > burst {
			ts.tbTokens = burst
		}
	}
	ts.tbLast = now
	if ts.tbTokens < float64(n) {
		return false
	}
	ts.tbTokens -= float64(n)
	return true
}

// attributeTenant binds a session to a named tenant for accounting.
func (s *Server) attributeTenant(name string) {
	s.mu.Lock()
	ts := s.tenantLocked(tenantKeyFor(name))
	ts.mu.Lock()
	ts.conns++
	ts.mu.Unlock()
	s.mu.Unlock()
}

// dropTenant releases a session's attribution at teardown, deleting the
// accounting bucket once nothing references it (named tenants when their
// last connection leaves; per-connection keys always, since only the owning
// session ever used them).
func (s *Server) dropTenant(key string, named bool) {
	s.mu.Lock()
	if ts, ok := s.tenants[key]; ok {
		ts.mu.Lock()
		if named {
			ts.conns--
		}
		dead := ts.conns <= 0 && ts.streams <= 0
		ts.mu.Unlock()
		if dead {
			delete(s.tenants, key)
		}
	}
	s.mu.Unlock()
}

// tenantsActive counts live tenant accounting buckets (named and
// per-connection alike): the denominator of a fair share.
func (s *Server) tenantsActive() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.tenants))
}

// replicaInfo answers a replica-info request with the server's identity and
// live load.
func (s *Server) replicaInfo() ReplicaInfoResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ReplicaInfoResp{
		ReplicaID:   s.cfg.ReplicaID,
		OpenStreams: uint32(s.openStreams),
		MaxStreams:  uint32(s.cfg.MaxStreams),
		Draining:    s.draining,
	}
}

// reapIdle closes streams idle past IdleTimeout on their view's simulated
// clock. It runs on the open-stream path when the server-wide cap is
// exhausted — the moment admission slots are contended — so reaping needs
// no wall-clock timer: an abandoned stream is collected as soon as other
// traffic has both advanced the simulated disk and run out of slots.
func (s *Server) reapIdle() {
	if s.cfg.IdleTimeout <= 0 {
		return
	}
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	total := 0
	for _, sess := range sessions {
		n := sess.reapIdle(s.cfg.IdleTimeout)
		if n > 0 {
			key, _ := sess.tenantKey()
			s.releaseStreams(key, n)
			total += n
		}
	}
	s.stats.StreamsReaped.Add(int64(total))
	s.stats.StreamsClosed.Add(int64(total))
}

// Snapshot returns a point-in-time copy of the server's counters plus one
// row per live session.
func (s *Server) Snapshot() *StatsSnapshot {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	views := make([]*servedView, 0, len(s.views))
	for _, sv := range s.views {
		views = append(views, sv)
	}
	openConns := int64(len(s.sessions))
	openStreams := int64(s.openStreams)
	s.mu.Unlock()

	var write lsm.WriteStats
	for _, sv := range views {
		if w, ok := sv.v.(WritableSource); ok {
			ws := w.WriteStats()
			if ws.DeltaLevels > write.DeltaLevels {
				write.DeltaLevels = ws.DeltaLevels
			}
			write.MemViewRecords += ws.MemViewRecords
			write.MemViewTombstones += ws.MemViewTombstones
			write.TombstonesPending += ws.TombstonesPending
			write.Compactions += ws.Compactions
			write.WALBytes += ws.WALBytes
			write.WALFsyncs += ws.WALFsyncs
			write.WALReplayed += ws.WALReplayed
			write.WALSegments += ws.WALSegments
		}
	}

	c := &s.stats
	snap := &StatsSnapshot{
		OpenConns:       openConns,
		OpenStreams:     openStreams,
		ConnsAccepted:   c.ConnsAccepted.Load(),
		ConnsRejected:   c.ConnsRejected.Load(),
		StreamsOpened:   c.StreamsOpened.Load(),
		StreamsClosed:   c.StreamsClosed.Load(),
		StreamsReaped:   c.StreamsReaped.Load(),
		BatchesServed:   c.BatchesServed.Load(),
		RecordsServed:   c.RecordsServed.Load(),
		EstimatesServed: c.EstimatesServed.Load(),
		RejectedServer:  c.RejectedServer.Load(),
		RejectedConn:    c.RejectedConn.Load(),
		RejectedDrain:   c.RejectedDrain.Load(),
		BadFrames:       c.BadFrames.Load(),
		BytesRead:       c.BytesRead.Load(),
		BytesWritten:    c.BytesWritten.Load(),
		SimIO:           time.Duration(c.SimIONanos.Load()),
		TransientErrors: c.TransientErrors.Load(),
		DegradedErrors:  c.DegradedErrors.Load(),
		MaintJobs:       c.MaintJobs.Load(),
		MaintJobErrors:  c.MaintJobErrors.Load(),

		RecordsIngested:   c.RecordsIngested.Load(),
		RecordsDeleted:    c.RecordsDeleted.Load(),
		FlushesServed:     c.FlushesServed.Load(),
		RejectedWrites:    c.RejectedWrites.Load(),
		MemViewRecords:    write.MemViewRecords,
		TombstonesPending: write.TombstonesPending,
		DeltaLevels:       write.DeltaLevels,
		CompactionsRun:    write.Compactions,

		RejectedThrottle: c.RejectedThrottle.Load(),
		WALBytes:         write.WALBytes,
		WALFsyncs:        write.WALFsyncs,
		WALReplayed:      write.WALReplayed,
		WALSegments:      write.WALSegments,

		RejectedTenant: c.RejectedTenant.Load(),
		TenantsActive:  s.tenantsActive(),
	}
	for _, sess := range sessions {
		snap.Sessions = append(snap.Sessions, sess.snapshot())
	}
	return snap
}
