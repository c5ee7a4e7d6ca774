package server

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sampleview/internal/aqp"
	"sampleview/internal/record"
)

// The retry schedule of typed transient server failures (CodeTransient) and
// write-rate throttles: at most maxRetries retries of one request, the first
// after baseDelay, each step doubling until maxDelay caps it, with seeded
// jitter. Each client draws its jitter from a seed of its own (clientSeeds),
// so a fleet of retrying clients does not stampede in lockstep, and a
// process that makes its clients in the same order backs off the same way
// on every run.
const (
	maxRetries = 6
	baseDelay  = 2 * time.Millisecond
	maxDelay   = 250 * time.Millisecond
)

// backoff computes the delay before retry number attempt (0-based):
// baseDelay doubling per attempt, capped at maxDelay, with the upper half
// of the interval jittered by the seeded source.
func backoff(attempt int, jitter uint64) time.Duration {
	d := baseDelay << uint(attempt)
	if d <= 0 || d > maxDelay {
		d = maxDelay
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(jitter%uint64(half)+1)
	}
	return d
}

// Client is a connection to a sample-view server. One Client maps to one
// server session; any number of remote views and streams may be multiplexed
// over it. A Client is safe for concurrent use — requests serialize on the
// connection, matching the protocol's strict request/response alternation.
type Client struct {
	mu   sync.Mutex
	conn net.Conn // set once; requests use it under mu, Close from outside
	// fr reads every response into the connection's one read buffer, and
	// wbuf is where every request frame is encoded, in place. A response
	// body aliases fr's buffer, which the next exchange of any stream on
	// this connection overwrites: it is decoded before mu is released.
	fr    *FrameReader        // guarded by mu
	wbuf  []byte              // guarded by mu
	err   error               // guarded by mu; sticky transport failure
	rng   *rand.Rand          // guarded by mu; seeded jitter source
	sleep func(time.Duration) // guarded by mu; backoff wait, swappable in tests

	retries atomic.Int64 // transient failures absorbed by retrying
}

// clientSeeds numbers the clients of a process: the nth NewClient seeds its
// jitter with n.
var clientSeeds atomic.Uint64

// jitterSource is the backoff jitter source seed drives.
func jitterSource(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Retries returns how many transient server failures this client has
// absorbed by transparently retrying.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Dial connects to a sample-view server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (any net.Conn, e.g. net.Pipe
// in tests) as a Client.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		fr:   NewFrameReader(conn),
		rng:  jitterSource(clientSeeds.Add(1)),
		// Backoff waits are real (wall clock) pauses between network
		// retries; tests substitute a recording stub.
		sleep: time.Sleep,
	}
}

// Close tears down the connection, failing a request in flight rather than
// waiting for it. Streams opened through the client become unusable; the
// server reclaims their admission slots on disconnect.
func (c *Client) Close() error {
	err := c.conn.Close() // before mu: a request in flight holds it until its read fails
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = fmt.Errorf("server: client closed")
	}
	return err
}

// roundTrip sends one request frame, reads the single response frame,
// checks it is a want frame, and hands its body to use — while the
// connection is still held, because the body lives in the connection's read
// buffer. Server-signalled failures come back as *Error; transport failures
// and out-of-protocol answers poison the client.
func (c *Client) roundTrip(req FrameType, body []byte, want FrameType, use func(rbody []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	fail := func(err error) error {
		c.err = err
		c.conn.Close()
		return err
	}
	frame, err := AppendFrame(c.wbuf[:0], req, body)
	if err != nil {
		return fail(err)
	}
	if cap(frame) <= KeepBuf {
		c.wbuf = frame
	}
	if _, err := c.conn.Write(frame); err != nil {
		return fail(fmt.Errorf("server: writing %v request: %w", req, err))
	}
	rt, rbody, err := c.fr.Next()
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("server: connection closed by server: %w", io.EOF)
		}
		return fail(err)
	}
	if rt == FError {
		e, derr := DecodeErrorResp(rbody)
		if derr != nil {
			return fail(derr)
		}
		return &Error{Code: e.Code, Msg: e.Msg}
	}
	if rt != want {
		return fail(fmt.Errorf("server: %v request answered with %v frame", req, rt))
	}
	if use == nil {
		return nil
	}
	return use(rbody)
}

// retry is roundTrip plus absorption of the failures retryable accepts
// (nil: none): each is retried under the retry schedule — capped
// exponential backoff, seeded jitter, a wall clock wait between attempts —
// before it surfaces. Every retried failure must be one the server rejected
// before applying anything (transient pulls make no stream progress,
// write-rate throttles land nothing), so replaying the identical request is
// safe.
func (c *Client) retry(req FrameType, body []byte, want FrameType, retryable func(error) bool, use func(rbody []byte) error) error {
	for attempt := 0; ; attempt++ {
		err := c.roundTrip(req, body, want, use)
		if err == nil || retryable == nil || !retryable(err) {
			return err
		}
		c.mu.Lock()
		jitter := c.rng.Uint64()
		sleep := c.sleep
		c.mu.Unlock()
		if attempt >= maxRetries {
			return err
		}
		c.retries.Add(1)
		if sleep != nil {
			sleep(backoff(attempt, jitter))
		}
	}
}

// call is retry for the exchanges whose response is one decodable message:
// the message is decoded, inside the exchange, into a value of its own.
func call[T any](c *Client, req FrameType, body []byte, want FrameType, retryable func(error) bool, decode func([]byte) (T, error)) (T, error) {
	var out T
	err := c.retry(req, body, want, retryable, func(rbody []byte) (err error) {
		out, err = decode(rbody)
		return err
	})
	return out, err
}

// OpenView resolves a served view by name.
func (c *Client) OpenView(name string) (*RemoteView, error) {
	info, err := call(c, FOpenView, OpenViewReq{Name: name}.Encode(), FViewInfo, nil, DecodeViewInfo)
	if err != nil {
		return nil, err
	}
	return &RemoteView{c: c, id: info.ViewID, dims: int(info.Dims), height: int(info.Height), count: info.Count}, nil
}

// ListViews enumerates the server's servable views: statically registered
// ones plus the hosted catalog's registry, sorted by name.
func (c *Client) ListViews() ([]ViewListEntry, error) {
	resp, err := call(c, FListViews, nil, FViewList, nil, DecodeViewListResp)
	return resp.Views, err
}

// ServerStats fetches the server's observability snapshot.
func (c *Client) ServerStats() (*StatsSnapshot, error) {
	return call(c, FStats, nil, FStatsResult, nil, decodeStatsSnapshot)
}

// SetTenant attributes this connection's quota usage to a named tenant:
// streams opened and writes landed afterwards draw from the tenant's caps,
// shared across every connection that set the same tenant, instead of
// per-connection accounting. It must be called before the connection's
// first stream opens and at most once per connection (repeating the same
// tenant is an idempotent no-op).
func (c *Client) SetTenant(tenant string) error {
	ack, err := call(c, FSetTenant, SetTenantReq{Tenant: tenant}.Encode(), FTenantOK, nil, DecodeSetTenantReq)
	if err != nil {
		return err
	}
	if ack.Tenant != tenant {
		return fmt.Errorf("server: set-tenant acked %q, want %q", ack.Tenant, tenant)
	}
	return nil
}

// ReplicaInfo identifies a server in a fleet and reports its live load; a
// router polls it for placement and health.
type ReplicaInfo struct {
	ReplicaID   string
	OpenStreams int
	MaxStreams  int
	Draining    bool
}

// ReplicaInfo fetches the server's fleet identity and load.
func (c *Client) ReplicaInfo() (ReplicaInfo, error) {
	resp, err := call(c, FReplicaInfo, nil, FReplicaInfoResult, nil, DecodeReplicaInfoResp)
	if err != nil {
		return ReplicaInfo{}, err
	}
	return ReplicaInfo{
		ReplicaID:   resp.ReplicaID,
		OpenStreams: int(resp.OpenStreams),
		MaxStreams:  int(resp.MaxStreams),
		Draining:    resp.Draining,
	}, nil
}

// RemoteView is a served view resolved over a client connection.
type RemoteView struct {
	c      *Client
	id     uint32
	dims   int
	height int
	count  int64
}

// Dims returns the view's indexed dimension count.
func (v *RemoteView) Dims() int { return v.dims }

// Height returns the view's ACE Tree height.
func (v *RemoteView) Height() int { return v.height }

// Count returns the view's record count at open time.
func (v *RemoteView) Count() int64 { return v.count }

// EstimateCount estimates the number of records matching q, served from
// the view's internal counts plus a scan of any delta levels. The scan can
// hit transient storage faults, which the retry policy absorbs (the
// estimate is idempotent).
func (v *RemoteView) EstimateCount(q record.Box) (float64, error) {
	resp, err := call(v.c, FEstimate, EstimateReq{ViewID: v.id, Query: q}.Encode(), FEstimateResult, IsTransient, DecodeEstimateResp)
	return resp.Count, err
}

// Append inserts a batch of records into the view's live write path. The
// server acks only after the batch is durable in the view's write-ahead
// log (when the view runs with one), and Append returns how many records
// it accepted: len(recs) on success, fewer if the batch failed partway
// (the accepted prefix is applied in the server's memview). Write
// rejections — a read-only view, or the ingest backlog over the server's
// cap — surface as *Error (check with IsWriteReject); the client stays
// usable and may retry after a flush. Write-rate throttles
// (CodeWriteThrottled) are retried automatically under the retry schedule:
// the server rejects a throttled batch before applying anything, so the
// replay cannot double-insert. No other append failure is auto-retried — a
// mid-batch failure may leave a prefix applied, and replaying it would
// double-insert.
func (v *RemoteView) Append(recs []record.Record) (int, error) {
	ack, err := call(v.c, FAppend, WriteReq{ViewID: v.id, Records: recs}.Encode(), FAppendOK, IsWriteThrottled, DecodeWriteAck)
	return int(ack.N), err
}

// Delete tombstones a batch of records in the view's live write path. The
// full records travel with the request, so deletes merge into delta levels
// without consulting the base view. Rejection, durability and
// throttle-retry semantics match Append.
func (v *RemoteView) Delete(recs []record.Record) (int, error) {
	ack, err := call(v.c, FDeleteRecs, WriteReq{ViewID: v.id, Records: recs}.Encode(), FDeleteOK, IsWriteThrottled, DecodeWriteAck)
	return int(ack.N), err
}

// Flush seals the view's in-memory write buffer and persists it as an
// on-disk delta level, returning how many buffered entries it covered.
// Flushing is idempotent (an empty buffer flushes to nothing), so transient
// failures are absorbed under the retry schedule.
func (v *RemoteView) Flush() (int, error) {
	ack, err := call(v.c, FFlushView, FlushViewReq{ViewID: v.id}.Encode(), FFlushOK, IsTransient, DecodeWriteAck)
	return int(ack.N), err
}

// Query opens an online sample stream for predicate q. Admission-control
// rejections surface as *Error (check with IsAdmissionReject); the client
// remains usable and may retry. A failed open allocates nothing, so
// transient storage faults hit while scanning the view's delta levels are
// absorbed by the retry policy.
func (v *RemoteView) Query(q record.Box) (*RemoteStream, error) {
	resp, err := call(v.c, FOpenStream, OpenStreamReq{ViewID: v.id, Query: q}.Encode(), FStreamOpened, IsTransient, DecodeStreamOpened)
	if err != nil {
		return nil, err
	}
	return &RemoteStream{v: v, id: resp.StreamID, batch: 256}, nil
}

// QueryAt is Query with the stream's randomness pinned to seed and the
// stream fast-forwarded to position pos (records to skip) before the first
// batch. The record sequence it serves is a pure function of (view state,
// query, seed), so the same call against any replica holding the same view
// bytes continues the same sample — the primitive fleet routers build
// hedging and live migration on.
func (v *RemoteView) QueryAt(q record.Box, seed uint64, pos int64) (*RemoteStream, error) {
	if pos < 0 {
		pos = 0
	}
	req := OpenStreamReq{ViewID: v.id, Query: q, Seeded: true, Seed: seed, StartPos: pos}
	resp, err := call(v.c, FOpenStream, req.Encode(), FStreamOpened, IsTransient, DecodeStreamOpened)
	if err != nil {
		return nil, err
	}
	return &RemoteStream{v: v, id: resp.StreamID, batch: 256, pos: pos}, nil
}

// SampleStream implements the aqp engine's Source interface, so a remote
// view can back an approximate aggregate query exactly like a local one.
func (v *RemoteView) SampleStream(q record.Box) (aqp.Stream, error) { return v.Query(q) }

var _ aqp.Source = (*RemoteView)(nil)

// RemoteStream is an online sample stream served over the network. Like
// the in-process Stream, every prefix of the records it returns is a
// uniform without-replacement sample of the predicate's matching set. It
// pulls batches lazily and buffers them client-side; SetBatchSize tunes
// the pull granularity. Safe for concurrent use.
type RemoteStream struct {
	v  *RemoteView
	id uint32

	mu     sync.Mutex
	buf    []record.Record // guarded by mu
	head   int             // guarded by mu
	eof    bool            // guarded by mu
	closed bool            // guarded by mu
	batch  int             // guarded by mu
	// pos is the server's position after the last batch, which every pull
	// names: the server fast-forwards to it past anything another replica
	// already delivered, never re-sending it, and it is the stream's resume
	// point on another replica.
	pos int64 // guarded by mu
}

// Pos returns the stream's server position after the last pulled batch:
// how many records of the sequence the server has served or skipped.
// Records buffered client-side but not yet read are included — Pos is the
// wire position, not the read position.
func (s *RemoteStream) Pos() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

// SetBatchSize sets how many records each network pull requests (the
// server clamps to its own cap). n <= 0 resets the default.
func (s *RemoteStream) SetBatchSize(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		n = 256
	}
	s.batch = n
}

// Next returns the next sample record, io.EOF once the predicate is
// exhausted, or ErrStreamClosed-equivalent failure after Close.
func (s *RemoteStream) Next() (record.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.head >= len(s.buf) {
		if err := s.drainedLocked(); err != nil {
			return record.Record{}, err
		}
		// Every buffered record has been handed out by value: the next
		// batch is decoded over them.
		var err error
		s.head = 0
		if s.buf, err = s.pullLocked(s.buf[:0]); err != nil {
			return record.Record{}, err
		}
	}
	s.head++
	return s.buf[s.head-1], nil
}

// NextBatch returns the next batch of sample records in a slice of its own:
// what Next left buffered if anything, otherwise one pull from the server
// decoded straight into the slice returned. It returns io.EOF once
// exhausted.
func (s *RemoteStream) NextBatch() ([]record.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head < len(s.buf) {
		out := append([]record.Record(nil), s.buf[s.head:]...)
		s.head = len(s.buf)
		return out, nil
	}
	if err := s.drainedLocked(); err != nil {
		return nil, err
	}
	out, err := s.pullLocked(nil)
	if err == nil && len(out) == 0 && s.eof {
		err = io.EOF
	}
	return out, err
}

// drainedLocked says why an empty stream cannot pull (nil when it can).
func (s *RemoteStream) drainedLocked() error {
	switch {
	case s.eof:
		return io.EOF
	case s.closed:
		return fmt.Errorf("server: stream closed")
	}
	return nil
}

// pullLocked fetches one batch from the server and appends it to dst,
// absorbing transient server faults under the retry schedule. Hard
// failures (CodeDegraded and the rest) surface to the caller; the stream
// itself stays usable, mirroring the in-process Stream's degraded semantics.
func (s *RemoteStream) pullLocked(dst []record.Record) ([]record.Record, error) {
	err := s.pull(s.pos, s.batch, func(body []byte) error {
		m, err := DecodeBatchInto(dst, body)
		if err != nil {
			return err
		}
		s.advanceLocked(m.Pos, m.EOF)
		dst = m.Records
		return nil
	})
	return dst, err
}

// pull performs one wire pull of up to max records at position pos and
// hands the FBatch body to use inside the exchange.
func (s *RemoteStream) pull(pos int64, max int, use func(body []byte) error) error {
	var req [16]byte
	body := NextBatchReq{StreamID: s.id, Max: uint32(max), Pos: pos}.appendTo(req[:0])
	return s.v.c.retry(FNextBatch, body, FBatch, IsTransient, use)
}

// advanceLocked records a pulled batch: end is the position the server
// reported after it.
func (s *RemoteStream) advanceLocked(end int64, eof bool) {
	s.pos = end
	s.eof = s.eof || eof
}

// RawBatch is one FBatch body as a server sent it, for forwarding: the
// fields an intermediary routes on, the records still encoded.
type RawBatch struct {
	Body []byte // the buffer the body was appended to, body and all
	N    int    // records in Body
	EOF  bool   // the sequence is exhausted
	End  int64  // the stream's position after the batch
}

// PullAt performs one wire pull at a position of the caller's: up to max
// records of the stream's sequence starting at position pos, bypassing the
// client-side buffer entirely and decoding nothing — the body is appended
// to dst as it arrived. The server fast-forwards (discarding records this
// caller already holds from another replica) when the stream is behind pos,
// and rejects with CodeStreamPosition when it is ahead — the caller then
// reopens at pos. PullAt is the fleet router's primitive for
// hedged reads and migration; do not mix it with the buffered
// Next/NextBatch on the same stream.
func (s *RemoteStream) PullAt(pos int64, max int, dst []byte) (RawBatch, error) {
	if max <= 0 {
		max = 256
	}
	var rb RawBatch
	err := s.pull(pos, max, func(body []byte) error {
		m, raw, err := SplitBatchResp(body)
		if err != nil {
			return err
		}
		rb = RawBatch{Body: append(dst, body...), N: len(raw) / record.Size, EOF: m.EOF, End: m.Pos}
		return nil
	})
	if err != nil {
		return RawBatch{End: pos}, err
	}
	s.mu.Lock()
	s.advanceLocked(rb.End, rb.EOF)
	s.mu.Unlock()
	return rb, nil
}

// Sample collects up to n records (fewer if the predicate exhausts first),
// mirroring the in-process Stream.Sample.
func (s *RemoteStream) Sample(n int) ([]record.Record, error) {
	out := make([]record.Record, 0, min(n, 4096))
	for len(out) < n {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Close cancels the stream on the server, releasing its admission slot.
// It is idempotent; cancelling a stream the server already reaped or
// auto-closed at EOF succeeds.
func (s *RemoteStream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	alreadyDone := s.eof
	s.mu.Unlock()
	if alreadyDone {
		return nil // the server retired the stream at EOF
	}
	err := s.v.c.roundTrip(FCancel, CancelReq{StreamID: s.id}.Encode(), FCancelOK, nil)
	if se, ok := err.(*Error); ok && (se.Code == CodeUnknownStream || se.Code == CodeStreamReaped) {
		return nil
	}
	return err
}
