// Package server is the network serving layer for online sample streams:
// it multiplexes many concurrent client sessions over a shared set of
// sampleview.Views, speaking a length-prefixed binary frame protocol over
// TCP (or any net.Conn).
//
// The paper's product is an *online* sample stream — results that improve
// the longer the client listens — and that shape dictates the protocol:
// a client opens a view, opens any number of streams against it, pulls
// batches at its own pace, and cancels the moment its estimate is good
// enough. The server performs admission control (server-wide and
// per-connection stream caps, bounded batch sizes) so that heavy traffic
// degrades into typed rejections rather than unbounded buffering, reaps
// sessions that go idle on the simulated disk clock, and drains in-flight
// batches on shutdown.
//
// # Wire format
//
// Every message is one frame:
//
//	uint32 length (little endian)   payload length, including the type byte
//	uint8  type                     FrameType
//	...                             body, length-1 bytes
//
// A frame's length must be in [1, MaxFrame]; anything else is a protocol
// error and closes the connection. All integers are little endian; strings
// are uint16-length-prefixed UTF-8; records travel in their 100-byte
// storage encoding (internal/record); boxes as a dimension count followed
// by per-dimension [lo, hi] int64 pairs. Requests and responses alternate
// strictly on a connection: the server writes exactly one response frame
// per request frame, so a client may multiplex many streams over one
// connection with a single in-flight request.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// errFrameLength marks a length-prefix protocol violation, as opposed to a
// transport failure; the server's read loop counts only these as bad frames.
var errFrameLength = errors.New("server: frame length outside bounds")

// MaxFrame is the largest legal frame payload (type byte + body) in bytes.
// Decoders reject larger length prefixes before allocating, so a corrupt
// or hostile length cannot force a large allocation.
const MaxFrame = 1 << 20

// headerSize is the length prefix size in bytes.
const headerSize = 4

// FrameType identifies a frame's meaning. Client-to-server types are
// requests; server-to-client types are responses.
type FrameType uint8

const (
	// Client → server.
	FOpenView    FrameType = 0x01 // body: name — resolve a served view by name
	FOpenStream  FrameType = 0x02 // body: viewID, box[, seeded flag, seed, start pos] — start an online sample stream
	FNextBatch   FrameType = 0x03 // body: streamID, max, pos — pull up to max records from position pos
	FEstimate    FrameType = 0x04 // body: viewID, box — estimate matching-record count
	FCancel      FrameType = 0x05 // body: streamID — close a stream early
	FStats       FrameType = 0x06 // body: empty — snapshot server/session counters
	FListViews   FrameType = 0x07 // body: empty — enumerate servable views
	FAppend      FrameType = 0x08 // body: viewID, records — ingest into the live write path
	FDeleteRecs  FrameType = 0x09 // body: viewID, records — tombstone records in the write path
	FFlushView   FrameType = 0x0a // body: viewID — persist the memview as a delta level
	FSetTenant   FrameType = 0x0b // body: tenant — attribute this connection's quota usage to a tenant
	FReplicaInfo FrameType = 0x0c // body: empty — identify the replica and its live load

	// Server → client.
	FViewInfo          FrameType = 0x81 // body: viewID, dims, height, count
	FStreamOpened      FrameType = 0x82 // body: streamID
	FBatch             FrameType = 0x83 // body: streamID, eof, records, pos after the batch
	FEstimateResult    FrameType = 0x84 // body: float64 count
	FCancelOK          FrameType = 0x85 // body: streamID
	FStatsResult       FrameType = 0x86 // body: encoded StatsSnapshot
	FViewList          FrameType = 0x87 // body: view-list entries (name, shape, health)
	FAppendOK          FrameType = 0x88 // body: viewID, records accepted
	FDeleteOK          FrameType = 0x89 // body: viewID, tombstones recorded
	FFlushOK           FrameType = 0x8a // body: viewID, buffered entries persisted
	FTenantOK          FrameType = 0x8b // body: tenant — per-tenant accounting now in effect
	FReplicaInfoResult FrameType = 0x8c // body: replica id, open streams, stream cap, draining flag
	FError             FrameType = 0xff // body: code, message
)

var frameNames = map[FrameType]string{
	FOpenView: "OpenView", FOpenStream: "OpenStream", FNextBatch: "NextBatch", FEstimate: "Estimate",
	FCancel: "Cancel", FStats: "Stats", FListViews: "ListViews", FAppend: "Append",
	FDeleteRecs: "DeleteRecs", FFlushView: "FlushView", FSetTenant: "SetTenant", FReplicaInfo: "ReplicaInfo",
	FViewInfo: "ViewInfo", FStreamOpened: "StreamOpened", FBatch: "Batch", FEstimateResult: "EstimateResult",
	FCancelOK: "CancelOK", FStatsResult: "StatsResult", FViewList: "ViewList", FAppendOK: "AppendOK",
	FDeleteOK: "DeleteOK", FFlushOK: "FlushOK", FTenantOK: "TenantOK", FReplicaInfoResult: "ReplicaInfoResult",
	FError: "Error",
}

func (t FrameType) String() string {
	if name, ok := frameNames[t]; ok {
		return name
	}
	return fmt.Sprintf("FrameType(0x%02x)", uint8(t))
}

// KeepBuf is the largest per-connection frame buffer (read or write) kept
// between frames: a connection that meets one larger frame (they reach
// MaxFrame) gives the memory back afterwards instead of holding it for its
// lifetime.
const KeepBuf = 64 << 10

// AppendFrame appends one encoded frame carrying the given type and body to
// dst and returns the extended slice. It fails if the frame would exceed
// MaxFrame.
func AppendFrame(dst []byte, t FrameType, body []byte) ([]byte, error) {
	n := len(body) + 1
	if n > MaxFrame {
		return dst, fmt.Errorf("server: frame payload %d bytes exceeds limit %d", n, MaxFrame)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, byte(t))
	return append(dst, body...), nil
}

// FrameReader reads one connection's frames through one buffer: the body
// Next returns aliases that buffer and is valid until the following Next, so
// a steady stream of frames is read without allocating. The buffer grows to
// the largest frame the connection carries and is released again past
// KeepBuf.
type FrameReader struct {
	r   io.Reader
	buf []byte // buf[lo:hi] is read but not yet consumed
	lo  int
	hi  int
	// OnHeader, when set, runs once per frame the moment its length prefix
	// has arrived and before the payload is awaited: the server arms its
	// per-request deadline there, so waiting for the *next* request is
	// unbounded while a request under way is not.
	OnHeader func()
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// fill blocks until at least n unconsumed bytes are buffered.
func (fr *FrameReader) fill(n int) error {
	have := fr.hi - fr.lo
	if have >= n {
		return nil
	}
	if have == 0 {
		fr.lo, fr.hi = 0, 0
		if cap(fr.buf) > KeepBuf && n <= KeepBuf {
			fr.buf = nil
		}
	}
	if cap(fr.buf)-fr.lo < n {
		// No room for n behind lo: move what is unconsumed to the front of a
		// buffer that holds n, this one if it can.
		buf := fr.buf[:cap(fr.buf)]
		if len(buf) < n {
			buf = make([]byte, max(n, 512))
		}
		copy(buf, fr.buf[fr.lo:fr.hi])
		fr.buf, fr.lo, fr.hi = buf, 0, have
	}
	got, err := io.ReadAtLeast(fr.r, fr.buf[fr.hi:cap(fr.buf)], n-have)
	fr.hi += got
	if err == io.EOF && fr.hi > fr.lo {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Next reads one frame. io.EOF is returned untouched when the reader is
// exhausted at a frame boundary, so callers can distinguish a clean close
// from a torn frame (io.ErrUnexpectedEOF). The length prefix is validated
// before any buffer is sized by it (at most MaxFrame bytes).
func (fr *FrameReader) Next() (FrameType, []byte, error) {
	if err := fr.fill(headerSize); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("server: reading frame header: %w", err)
	}
	if fr.OnHeader != nil {
		fr.OnHeader()
	}
	n := binary.LittleEndian.Uint32(fr.buf[fr.lo:])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d outside [1, %d]", errFrameLength, n, MaxFrame)
	}
	if err := fr.fill(headerSize + int(n)); err != nil {
		return 0, nil, fmt.Errorf("server: reading %d-byte frame payload: %w", n, err)
	}
	payload := fr.buf[fr.lo+headerSize : fr.lo+headerSize+int(n)]
	fr.lo += headerSize + int(n)
	return FrameType(payload[0]), payload[1:], nil
}
