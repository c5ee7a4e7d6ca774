package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"sampleview/internal/record"
)

// Typed rejection and failure codes carried by FError frames. Codes are
// part of the wire protocol; add new ones at the end.
const (
	// CodeBadRequest: the frame was malformed or of an unknown type.
	CodeBadRequest uint16 = 1
	// CodeUnknownView: no served view has the requested name or id.
	CodeUnknownView uint16 = 2
	// CodeUnknownStream: the stream id is not open on this connection.
	CodeUnknownStream uint16 = 3
	// CodeServerStreams: admission control — the server-wide concurrent
	// stream cap is reached; retry after closing or finishing a stream.
	CodeServerStreams uint16 = 4
	// CodeConnStreams: admission control — this connection's stream cap is
	// reached.
	CodeConnStreams uint16 = 5
	// CodeShuttingDown: the server is draining and accepts no new work.
	CodeShuttingDown uint16 = 6
	// CodeStreamReaped: the stream sat idle past the server's simulated-clock
	// idle timeout and was reaped.
	CodeStreamReaped uint16 = 7
	// CodeInternal: the view layer failed serving the request.
	CodeInternal uint16 = 8
	// CodeTransient: the request failed on a transient storage fault that
	// outlived the storage layer's own retry budget. The stream is intact
	// and made no progress, so repeating the exact request resumes at the
	// faulted stab; the client library retries these automatically under
	// its RetryPolicy.
	CodeTransient uint16 = 9
	// CodeDegraded: the stream permanently lost a leaf to a hard storage
	// failure (dead page or detected corruption). The stream stays open
	// and keeps serving the surviving leaves, but the records the lost
	// leaf held are gone; the message names the leaf and sections.
	CodeDegraded uint16 = 10
	// CodeReadOnly: the view does not accept writes (it has no live write
	// path behind it). Appends, deletes and flushes against it are refused.
	CodeReadOnly uint16 = 11
	// CodeWriteBacklog: admission control — the view's in-memory write
	// buffer is over the server's backlog cap and the ingest must back off
	// until a flush drains it. The request made no change; retry later.
	CodeWriteBacklog uint16 = 12
	// CodeWriteThrottled: admission control — the connection's write-rate
	// token bucket is empty. The request was rejected before any record was
	// applied, so retrying the identical batch after a short backoff is
	// safe; the client library does so automatically.
	CodeWriteThrottled uint16 = 13
	// CodeTenantStreams: admission control — the tenant this connection is
	// attributed to has reached its stream cap. Like the other admission
	// rejections, the session stays usable and the request may be retried
	// once one of the tenant's streams closes.
	CodeTenantStreams uint16 = 14
	// CodeStreamPosition: a next-batch request named a position behind the
	// stream's current one. Samples are served exactly once and cannot be
	// rewound in place; the caller must reopen the stream at the desired
	// position (the open-stream request accepts a start position).
	CodeStreamPosition uint16 = 15
	numCodes                  = 16 // one past the last code: the engine counts the error frames it sends by code
)

// Error is a typed failure returned by the server as an FError frame and
// surfaced by the client library. Admission-control rejections
// (CodeServerStreams, CodeConnStreams) are ordinary flow control: the
// session stays usable and the request may be retried.
type Error struct {
	Code uint16
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("server: remote error %d: %s", e.Code, e.Msg)
}

// IsAdmissionReject reports whether err is a typed admission-control
// rejection (server-wide, per-connection or per-tenant stream cap).
func IsAdmissionReject(err error) bool {
	se, ok := err.(*Error)
	return ok && (se.Code == CodeServerStreams || se.Code == CodeConnStreams || se.Code == CodeTenantStreams)
}

// IsStreamPosition reports whether err is a typed position-rewind
// rejection: the stream cannot serve records behind its current position
// and must be reopened at the position the caller wants.
func IsStreamPosition(err error) bool {
	se, ok := err.(*Error)
	return ok && se.Code == CodeStreamPosition
}

// IsTransient reports whether err is a typed transient server failure:
// the stream made no progress and repeating the request resumes exactly
// where the fault struck.
func IsTransient(err error) bool {
	se, ok := err.(*Error)
	return ok && se.Code == CodeTransient
}

// IsDegraded reports whether err is a typed degradation notice: the
// stream permanently lost a leaf but remains serviceable.
func IsDegraded(err error) bool {
	se, ok := err.(*Error)
	return ok && se.Code == CodeDegraded
}

// IsWriteReject reports whether err is a typed write-path rejection: the
// view is read-only, or its ingest backlog is over the server's cap. In
// either case the request changed nothing; a backlog rejection clears once
// maintenance flushes the buffer.
func IsWriteReject(err error) bool {
	se, ok := err.(*Error)
	return ok && (se.Code == CodeReadOnly || se.Code == CodeWriteBacklog)
}

// IsWriteThrottled reports whether err is a typed write-rate rejection:
// the connection's token bucket ran dry before the batch was admitted.
// Nothing was applied, so the identical request may be retried after a
// backoff.
func IsWriteThrottled(err error) bool {
	se, ok := err.(*Error)
	return ok && se.Code == CodeWriteThrottled
}

// --- primitive append/consume helpers -----------------------------------
//
// Encoders append to a caller-owned slice. Decoders consume from the front
// of a slice and return the rest; they validate lengths against the bytes
// actually available before building anything, so corrupt input costs at
// most the input's own size.

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func consumeU16(b []byte) (uint16, []byte, error) {
	if len(b) < 2 {
		return 0, nil, errShort
	}
	return binary.LittleEndian.Uint16(b), b[2:], nil
}

func consumeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errShort
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func consumeI64(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errShort
	}
	return int64(binary.LittleEndian.Uint64(b)), b[8:], nil
}

var errShort = fmt.Errorf("server: truncated message body")

func appendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

func consumeString(b []byte) (string, []byte, error) {
	n, b, err := consumeU16(b)
	if err != nil {
		return "", nil, err
	}
	if len(b) < int(n) {
		return "", nil, errShort
	}
	return string(b[:n]), b[n:], nil
}

// appendBox encodes a box as a dimension count plus [lo, hi] pairs.
func appendBox(b []byte, q record.Box) []byte {
	b = append(b, byte(q.Dims()))
	for d := 0; d < q.Dims(); d++ {
		r := q.Dim(d)
		b = appendI64(b, r.Lo)
		b = appendI64(b, r.Hi)
	}
	return b
}

func consumeBox(b []byte) (record.Box, []byte, error) {
	if len(b) < 1 {
		return record.Box{}, nil, errShort
	}
	nd := int(b[0])
	b = b[1:]
	if nd < 1 || nd > record.NumDims {
		return record.Box{}, nil, fmt.Errorf("server: box has %d dimensions, want 1..%d", nd, record.NumDims)
	}
	if len(b) < nd*16 {
		return record.Box{}, nil, errShort
	}
	var dims [record.NumDims]record.Range
	for d := 0; d < nd; d++ {
		var lo, hi int64
		var err error
		if lo, b, err = consumeI64(b); err != nil {
			return record.Box{}, nil, err
		}
		if hi, b, err = consumeI64(b); err != nil {
			return record.Box{}, nil, err
		}
		dims[d] = record.Range{Lo: lo, Hi: hi}
	}
	return record.NewBox(dims[:nd]...), b, nil
}

// appendRecords encodes a record batch — count, then the fixed-size codec of
// each record — growing b once, to the size the batch needs, and marshalling
// every record where it lands.
func appendRecords(b []byte, recs []record.Record) []byte {
	b = appendU32(slices.Grow(b, 4+len(recs)*record.Size), uint32(len(recs)))
	off := len(b)
	b = b[:off+len(recs)*record.Size]
	for i := range recs {
		recs[i].Marshal(b[off+i*record.Size:])
	}
	return b
}

// splitRecords validates a record batch's count against the bytes that
// follow it and returns the still-encoded records (len(raw)/record.Size of
// them) and the rest.
func splitRecords(b []byte) (raw, rest []byte, err error) {
	c, b, err := consumeU32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(b)) < uint64(c)*record.Size {
		return nil, nil, fmt.Errorf("server: batch claims %d records but only %d bytes follow", c, len(b))
	}
	size := int(c) * record.Size
	return b[:size], b[size:], nil
}

// --- request messages ----------------------------------------------------
//
// The engine decodes these and the client encodes them; an Endpoint is handed
// the decoded message (the fleet router re-issues it to replicas through the
// Client API), so there is one codec per message.

// OpenViewReq is the body of FOpenView.
type OpenViewReq struct{ Name string }

// Encode renders the body.
func (m OpenViewReq) Encode() []byte { return appendString(nil, m.Name) }

// DecodeOpenViewReq decodes an FOpenView body.
func DecodeOpenViewReq(b []byte) (OpenViewReq, error) {
	name, rest, err := consumeString(b)
	if err != nil {
		return OpenViewReq{}, err
	}
	return whole(OpenViewReq{Name: name}, rest)
}

// openStreamFlagSeeded marks an open-stream request that pins the stream's
// randomness to an explicit seed (and optionally fast-forwards to a start
// position), so the identical sample sequence can be reopened on any
// replica holding the same view bytes.
const openStreamFlagSeeded = 0x01

// OpenStreamReq is the body of FOpenStream.
type OpenStreamReq struct {
	ViewID uint32
	Query  record.Box
	// Seeded pins the stream's randomness to Seed; StartPos (records to
	// skip before the first batch) lets a migrated or hedged stream resume
	// mid-sequence. Absent on the wire for unseeded opens, so pre-fleet
	// peers interoperate unchanged.
	Seeded   bool
	Seed     uint64
	StartPos int64
}

// Encode renders the body.
func (m OpenStreamReq) Encode() []byte {
	b := appendBox(appendU32(nil, m.ViewID), m.Query)
	if m.Seeded {
		b = append(b, openStreamFlagSeeded)
		b = appendI64(b, int64(m.Seed))
		b = appendI64(b, m.StartPos)
	}
	return b
}

// DecodeOpenStreamReq decodes an FOpenStream body.
func DecodeOpenStreamReq(b []byte) (OpenStreamReq, error) {
	var m OpenStreamReq
	var err error
	if m.ViewID, b, err = consumeU32(b); err != nil {
		return m, err
	}
	if m.Query, b, err = consumeBox(b); err != nil {
		return m, err
	}
	if len(b) == 0 {
		return m, nil // legacy unseeded open
	}
	if b[0] != openStreamFlagSeeded {
		return m, fmt.Errorf("server: open-stream flags 0x%02x unknown", b[0])
	}
	m.Seeded = true
	var seed int64
	if seed, b, err = consumeI64(b[1:]); err != nil {
		return m, err
	}
	m.Seed = uint64(seed)
	if m.StartPos, b, err = consumeI64(b); err != nil {
		return m, err
	}
	if m.StartPos < 0 {
		return m, fmt.Errorf("server: open-stream start position %d negative", m.StartPos)
	}
	return whole(m, b)
}

// NextBatchReq is the body of FNextBatch.
type NextBatchReq struct {
	StreamID uint32
	Max      uint32
	// Pos is the stream position (records already consumed) the caller
	// expects the batch to start at, or -1 for unchecked pulls. When the
	// stream is ahead the request is rejected with CodeStreamPosition;
	// when behind, the server fast-forwards (hedged duplicates are
	// discarded server-side, never re-sent). Absent on the wire for
	// legacy pulls.
	Pos int64
}

// Encode renders the body.
func (m NextBatchReq) Encode() []byte { return m.appendTo(nil) }

// appendTo renders the body behind b (a stack buffer, on the pull path).
func (m NextBatchReq) appendTo(b []byte) []byte {
	b = appendU32(appendU32(b, m.StreamID), m.Max)
	if m.Pos >= 0 {
		b = appendI64(b, m.Pos)
	}
	return b
}

// DecodeNextBatchReq decodes an FNextBatch body.
func DecodeNextBatchReq(b []byte) (NextBatchReq, error) {
	m := NextBatchReq{Pos: -1}
	var err error
	if m.StreamID, b, err = consumeU32(b); err != nil {
		return m, err
	}
	if m.Max, b, err = consumeU32(b); err != nil {
		return m, err
	}
	if len(b) == 0 {
		return m, nil // legacy unchecked pull
	}
	if m.Pos, b, err = consumeI64(b); err != nil {
		return m, err
	}
	if m.Pos < 0 {
		return m, fmt.Errorf("server: next-batch position %d negative", m.Pos)
	}
	return whole(m, b)
}

// EstimateReq is the body of FEstimate.
type EstimateReq struct {
	ViewID uint32
	Query  record.Box
}

// Encode renders the body.
func (m EstimateReq) Encode() []byte {
	return appendBox(appendU32(nil, m.ViewID), m.Query)
}

// DecodeEstimateReq decodes an FEstimate body.
func DecodeEstimateReq(b []byte) (EstimateReq, error) {
	var m EstimateReq
	var err error
	if m.ViewID, b, err = consumeU32(b); err != nil {
		return m, err
	}
	if m.Query, b, err = consumeBox(b); err != nil {
		return m, err
	}
	return whole(m, b)
}

// CancelReq is the body of FCancel and of its FCancelOK echo.
type CancelReq struct{ StreamID uint32 }

// Encode renders the body.
func (m CancelReq) Encode() []byte { return appendU32(nil, m.StreamID) }

// DecodeCancelReq decodes an FCancel or FCancelOK body.
func DecodeCancelReq(b []byte) (CancelReq, error) {
	var m CancelReq
	var err error
	if m.StreamID, b, err = consumeU32(b); err != nil {
		return m, err
	}
	return whole(m, b)
}

var errTrailing = fmt.Errorf("server: trailing bytes after message body")

// whole returns a decoded message once nothing follows it in the body: one
// with trailing bytes is malformed.
func whole[T any](m T, rest []byte) (T, error) {
	if len(rest) != 0 {
		return m, errTrailing
	}
	return m, nil
}

// WriteReq is the body of FAppend and FDeleteRecs, which share the wire
// shape: a batch of records to insert into a view's live write path, or a
// batch of tombstones (full records, so the delete can be verified and
// merged without consulting the base view).
type WriteReq struct {
	ViewID  uint32
	Records []record.Record
}

// Encode renders the body.
func (m WriteReq) Encode() []byte {
	return appendRecords(appendU32(nil, m.ViewID), m.Records)
}

// DecodeWriteReq decodes an FAppend or FDeleteRecs body.
func DecodeWriteReq(b []byte) (WriteReq, error) {
	var m WriteReq
	var err error
	if m.ViewID, b, err = consumeU32(b); err != nil {
		return m, err
	}
	raw, b, err := splitRecords(b)
	if err != nil {
		return m, err
	}
	if len(b) != 0 {
		return m, errTrailing
	}
	m.Records = record.AppendBatch(nil, raw, len(raw)/record.Size)
	return m, nil
}

// FlushViewReq (the body of FFlushView) asks the server to seal the view's in-memory write buffer
// and persist it as an on-disk delta level.
type FlushViewReq struct{ ViewID uint32 }

// Encode renders the body.
func (m FlushViewReq) Encode() []byte { return appendU32(nil, m.ViewID) }

// DecodeFlushViewReq decodes an FFlushView body.
func DecodeFlushViewReq(b []byte) (FlushViewReq, error) {
	var m FlushViewReq
	var err error
	if m.ViewID, b, err = consumeU32(b); err != nil {
		return m, err
	}
	return whole(m, b)
}

// SetTenantReq (the body of FSetTenant and of its FTenantOK echo) attributes a connection's quota usage to a named tenant.
// Sessions that never send it are accounted per-connection (the pre-fleet
// behaviour); the fleet router sends it on every replica connection so all
// of a tenant's connections draw from one stream cap and one write bucket.
type SetTenantReq struct{ Tenant string }

// Encode renders the body.
func (m SetTenantReq) Encode() []byte { return appendString(nil, m.Tenant) }

// DecodeSetTenantReq decodes an FSetTenant or FTenantOK body.
func DecodeSetTenantReq(b []byte) (SetTenantReq, error) {
	t, rest, err := consumeString(b)
	if err != nil {
		return SetTenantReq{}, err
	}
	return whole(SetTenantReq{Tenant: t}, rest)
}

// ReplicaInfoResp (the body of FReplicaInfoResult) identifies a replica and reports its live load, the
// signal the fleet router's placement and health checks run on.
type ReplicaInfoResp struct {
	ReplicaID   string
	OpenStreams uint32
	MaxStreams  uint32
	Draining    bool
}

// Encode renders the body.
func (m ReplicaInfoResp) Encode() []byte {
	b := appendString(nil, m.ReplicaID)
	b = appendU32(b, m.OpenStreams)
	b = appendU32(b, m.MaxStreams)
	if m.Draining {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeReplicaInfoResp decodes an FReplicaInfoResult body.
func DecodeReplicaInfoResp(b []byte) (ReplicaInfoResp, error) {
	var m ReplicaInfoResp
	var err error
	if m.ReplicaID, b, err = consumeString(b); err != nil {
		return m, err
	}
	if m.OpenStreams, b, err = consumeU32(b); err != nil {
		return m, err
	}
	if m.MaxStreams, b, err = consumeU32(b); err != nil {
		return m, err
	}
	if len(b) < 1 {
		return m, errShort
	}
	if b[0] > 1 {
		return m, fmt.Errorf("server: replica draining flag %d, want 0 or 1", b[0])
	}
	m.Draining = b[0] == 1
	if len(b) != 1 {
		return m, errTrailing
	}
	return m, nil
}

// ViewListEntry is one view in an FViewList response: its name, whether it
// is sharded (and across how many disks, under which partitioning), its
// record count, and the catalog's health verdict ("ok", "stale",
// "degraded"; statically registered views always report "ok").
type ViewListEntry struct {
	Name      string
	Sharded   bool
	K         uint32
	Partition string
	Count     int64
	Health    string
}

// ViewListResp is the body of FViewList.
type ViewListResp struct{ Views []ViewListEntry }

// Encode renders the body.
func (m ViewListResp) Encode() []byte {
	b := appendU32(nil, uint32(len(m.Views)))
	for i := range m.Views {
		e := &m.Views[i]
		b = appendString(b, e.Name)
		if e.Sharded {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendU32(b, e.K)
		b = appendString(b, e.Partition)
		b = appendI64(b, e.Count)
		b = appendString(b, e.Health)
	}
	return b
}

// DecodeViewListResp decodes an FViewList body.
func DecodeViewListResp(b []byte) (ViewListResp, error) {
	n, b, err := consumeU32(b)
	if err != nil {
		return ViewListResp{}, err
	}
	// Each entry costs at least 13 bytes, bounding n before any allocation.
	if uint64(len(b)) < uint64(n)*13 {
		return ViewListResp{}, fmt.Errorf("server: view list claims %d entries but only %d bytes follow", n, len(b))
	}
	m := ViewListResp{Views: make([]ViewListEntry, n)}
	for i := range m.Views {
		e := &m.Views[i]
		if e.Name, b, err = consumeString(b); err != nil {
			return ViewListResp{}, err
		}
		if len(b) < 1 {
			return ViewListResp{}, errShort
		}
		if b[0] > 1 {
			return ViewListResp{}, fmt.Errorf("server: view sharded flag %d, want 0 or 1", b[0])
		}
		e.Sharded = b[0] == 1
		b = b[1:]
		if e.K, b, err = consumeU32(b); err != nil {
			return ViewListResp{}, err
		}
		if e.Partition, b, err = consumeString(b); err != nil {
			return ViewListResp{}, err
		}
		if e.Count, b, err = consumeI64(b); err != nil {
			return ViewListResp{}, err
		}
		if e.Health, b, err = consumeString(b); err != nil {
			return ViewListResp{}, err
		}
	}
	return whole(m, b)
}

// --- response messages ----------------------------------------------------

// ViewInfo is the body of FViewInfo.
type ViewInfo struct {
	ViewID uint32
	Dims   uint8
	Height uint8
	Count  int64
}

// Encode renders the body.
func (m ViewInfo) Encode() []byte {
	b := appendU32(nil, m.ViewID)
	b = append(b, m.Dims, m.Height)
	return appendI64(b, m.Count)
}

// DecodeViewInfo decodes an FViewInfo body.
func DecodeViewInfo(b []byte) (ViewInfo, error) {
	var m ViewInfo
	var err error
	if m.ViewID, b, err = consumeU32(b); err != nil {
		return m, err
	}
	if len(b) < 2 {
		return m, errShort
	}
	m.Dims, m.Height, b = b[0], b[1], b[2:]
	if m.Count, b, err = consumeI64(b); err != nil {
		return m, err
	}
	return whole(m, b)
}

// StreamOpened is the body of FStreamOpened.
type StreamOpened struct{ StreamID uint32 }

// Encode renders the body.
func (m StreamOpened) Encode() []byte { return appendU32(nil, m.StreamID) }

// DecodeStreamOpened decodes an FStreamOpened body.
func DecodeStreamOpened(b []byte) (StreamOpened, error) {
	var m StreamOpened
	var err error
	if m.StreamID, b, err = consumeU32(b); err != nil {
		return m, err
	}
	return whole(m, b)
}

// BatchResp is the body of FBatch.
type BatchResp struct {
	StreamID uint32
	EOF      bool
	Records  []record.Record
	// Pos is the stream position after this batch (total records served),
	// or -1 when the server predates position export. Fleet routers use it
	// as the canonical resume point for hedging and migration.
	Pos int64
}

// Encode renders the body; a negative Pos omits the position field (the
// legacy shape).
func (m BatchResp) Encode() []byte { return m.AppendTo(nil) }

// AppendTo renders the body behind b, in place: b grows once, to the exact
// size of the body, and each record is marshalled where it lands.
func (m BatchResp) AppendTo(b []byte) []byte {
	size := 4 + 1 + 4 + len(m.Records)*record.Size
	if m.Pos >= 0 {
		size += 8
	}
	b = appendU32(slices.Grow(b, size), m.StreamID)
	if m.EOF {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendRecords(b, m.Records)
	if m.Pos >= 0 {
		b = appendI64(b, m.Pos)
	}
	return b
}

// SplitBatchResp validates an FBatch body and returns its fields with the
// records still encoded (m.Records is nil; raw aliases b and holds
// len(raw)/record.Size of them): all an intermediary forwarding the body
// needs, at no record decoded.
func SplitBatchResp(b []byte) (m BatchResp, raw []byte, err error) {
	m.Pos = -1
	if m.StreamID, b, err = consumeU32(b); err != nil {
		return m, nil, err
	}
	if len(b) < 1 {
		return m, nil, errShort
	}
	if b[0] > 1 {
		return m, nil, fmt.Errorf("server: batch eof flag %d, want 0 or 1", b[0])
	}
	m.EOF = b[0] == 1
	if raw, b, err = splitRecords(b[1:]); err != nil {
		return m, nil, err
	}
	if len(b) == 0 {
		return m, raw, nil // legacy response without position export
	}
	if m.Pos, b, err = consumeI64(b); err != nil {
		return m, nil, err
	}
	if m.Pos < 0 {
		return m, nil, fmt.Errorf("server: batch position %d negative", m.Pos)
	}
	if len(b) != 0 {
		return m, nil, errTrailing
	}
	return m, raw, nil
}

// SetBatchStream re-addresses a valid FBatch body to stream id, in place:
// how a router forwards a replica's batch under the client's stream id.
func SetBatchStream(body []byte, id uint32) { binary.LittleEndian.PutUint32(body, id) }

// DecodeBatchInto decodes an FBatch body, appending its records to dst —
// once the body has been validated whole, so a bad body leaves dst alone.
func DecodeBatchInto(dst []record.Record, b []byte) (BatchResp, error) {
	m, raw, err := SplitBatchResp(b)
	if err != nil {
		return m, err
	}
	m.Records = record.AppendBatch(dst, raw, len(raw)/record.Size)
	return m, nil
}

// DecodeBatchResp decodes an FBatch body into records of its own.
func DecodeBatchResp(b []byte) (BatchResp, error) { return DecodeBatchInto(nil, b) }

// EstimateResp is the body of FEstimateResult.
type EstimateResp struct{ Count float64 }

// Encode renders the body.
func (m EstimateResp) Encode() []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(m.Count))
}

// DecodeEstimateResp decodes an FEstimateResult body.
func DecodeEstimateResp(b []byte) (EstimateResp, error) {
	if len(b) != 8 {
		return EstimateResp{}, errShort
	}
	return EstimateResp{Count: math.Float64frombits(binary.LittleEndian.Uint64(b))}, nil
}

// WriteAck (the body of FAppendOK, FDeleteOK and FFlushOK) acknowledges an append, delete or flush: N is how many records
// were accepted (appends), how many tombstones were recorded (deletes), or
// how many buffered entries the flush persisted.
type WriteAck struct {
	ViewID uint32
	N      uint32
}

// Encode renders the body.
func (m WriteAck) Encode() []byte {
	return appendU32(appendU32(nil, m.ViewID), m.N)
}

// DecodeWriteAck decodes an FAppendOK, FDeleteOK or FFlushOK body.
func DecodeWriteAck(b []byte) (WriteAck, error) {
	var m WriteAck
	var err error
	if m.ViewID, b, err = consumeU32(b); err != nil {
		return m, err
	}
	if m.N, b, err = consumeU32(b); err != nil {
		return m, err
	}
	return whole(m, b)
}

// ErrorResp is the body of FError.
type ErrorResp struct {
	Code uint16
	Msg  string
}

// Encode renders the body.
func (m ErrorResp) Encode() []byte {
	return appendString(appendU16(nil, m.Code), m.Msg)
}

// DecodeErrorResp decodes an FError body.
func DecodeErrorResp(b []byte) (ErrorResp, error) {
	var m ErrorResp
	var err error
	if m.Code, b, err = consumeU16(b); err != nil {
		return m, err
	}
	if m.Msg, b, err = consumeString(b); err != nil {
		return m, err
	}
	return whole(m, b)
}
