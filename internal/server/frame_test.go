package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"sampleview/internal/record"
)

// DecodeFrame decodes the first frame of b without copying: body aliases b,
// and rest is the remainder after the frame. It is the reference the
// FrameReader is checked against (here and by FuzzFrameDecode): a second,
// independent statement of the frame layout over bytes already in memory.
func DecodeFrame(b []byte) (t FrameType, body, rest []byte, err error) {
	if len(b) < headerSize {
		return 0, nil, nil, fmt.Errorf("server: truncated frame header: %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b[:headerSize])
	if n == 0 || n > MaxFrame {
		return 0, nil, nil, fmt.Errorf("%w: %d outside [1, %d]", errFrameLength, n, MaxFrame)
	}
	if uint32(len(b)-headerSize) < n {
		return 0, nil, nil, fmt.Errorf("server: frame length %d exceeds available %d bytes", n, len(b)-headerSize)
	}
	payload := b[headerSize : headerSize+int(n)]
	return FrameType(payload[0]), payload[1:], b[headerSize+int(n):], nil
}

// DecodeBatchResp decodes an FBatch body into records of its own.
func DecodeBatchResp(b []byte) (BatchResp, error) { return DecodeBatchInto(nil, b) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{nil, {}, {1, 2, 3}, bytes.Repeat([]byte{0xab}, 1000)}
	types := []FrameType{FOpenView, FBatch, FError, FStats}
	for i, body := range bodies {
		frame, err := AppendFrame(nil, types[i], body)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	fr := NewFrameReader(&buf)
	for i, body := range bodies {
		ft, got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != types[i] || !bytes.Equal(got, body) {
			t.Fatalf("frame %d: got (%v, %d bytes), want (%v, %d bytes)", i, ft, len(got), types[i], len(body))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("drained reader: err = %v, want io.EOF", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want string // substring of the error; "" means io.ErrUnexpectedEOF-ish
	}{
		{"zero length", binary.LittleEndian.AppendUint32(nil, 0), "outside"},
		{"oversized length", binary.LittleEndian.AppendUint32(nil, MaxFrame+1), "outside"},
		{"corrupt huge length", []byte{0xff, 0xff, 0xff, 0xff}, "outside"},
		{"truncated header", []byte{0x05, 0x00}, "header"},
		{"truncated payload", append(binary.LittleEndian.AppendUint32(nil, 10), 1, 2, 3), "payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := NewFrameReader(bytes.NewReader(tc.in)).Next()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestDecodeFrameBounds(t *testing.T) {
	frame, err := AppendFrame(nil, FCancel, CancelReq{StreamID: 7}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	two := append(append([]byte(nil), frame...), frame...)
	ft, body, rest, err := DecodeFrame(two)
	if err != nil || ft != FCancel {
		t.Fatalf("DecodeFrame: %v %v", ft, err)
	}
	if req, err := DecodeCancelReq(body); err != nil || req.StreamID != 7 {
		t.Fatalf("DecodeCancelReq: %+v %v", req, err)
	}
	if !bytes.Equal(rest, frame) {
		t.Fatalf("rest is not the second frame")
	}
	// A length prefix larger than the available bytes must error without
	// panicking, however huge the claim.
	bad := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	bad = append(bad, 0x01)
	if _, _, _, err := DecodeFrame(bad); err == nil {
		t.Fatal("length beyond available bytes: want error")
	}
}

func TestAppendFrameTooLarge(t *testing.T) {
	if _, err := AppendFrame(nil, FBatch, make([]byte, MaxFrame)); err == nil {
		t.Fatal("over-MaxFrame body: want error")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	box2 := record.Box2D(-5, 10, 100, 200)

	ov, err := DecodeOpenViewReq(OpenViewReq{Name: "sale"}.Encode())
	if err != nil || ov.Name != "sale" {
		t.Fatalf("OpenViewReq: %+v %v", ov, err)
	}
	os2, err := DecodeOpenStreamReq(OpenStreamReq{ViewID: 3, Query: box2}.Encode())
	if err != nil || os2.ViewID != 3 || os2.Query.Dims() != 2 || os2.Query.Dim(1).Hi != 200 {
		t.Fatalf("OpenStreamReq: %+v %v", os2, err)
	}
	nb, err := DecodeNextBatchReq(NextBatchReq{StreamID: 9, Max: 512}.Encode())
	if err != nil || nb.StreamID != 9 || nb.Max != 512 {
		t.Fatalf("NextBatchReq: %+v %v", nb, err)
	}
	est, err := DecodeEstimateReq(EstimateReq{ViewID: 1, Query: record.Box1D(0, 9)}.Encode())
	if err != nil || est.ViewID != 1 || est.Query.Dim(0).Hi != 9 {
		t.Fatalf("EstimateReq: %+v %v", est, err)
	}
	vi, err := DecodeViewInfo(ViewInfo{ViewID: 2, Dims: 2, Height: 7, Count: 1 << 40}.Encode())
	if err != nil || vi != (ViewInfo{ViewID: 2, Dims: 2, Height: 7, Count: 1 << 40}) {
		t.Fatalf("ViewInfo: %+v %v", vi, err)
	}
	recs := []record.Record{{Key: 1, Amount: 2, Seq: 3}, {Key: -9, Amount: 8, Seq: 7}}
	br, err := DecodeBatchResp(BatchResp{StreamID: 4, EOF: true, Records: recs}.Encode())
	if err != nil || br.StreamID != 4 || !br.EOF || len(br.Records) != 2 || br.Records[1] != recs[1] {
		t.Fatalf("BatchResp: %+v %v", br, err)
	}
	er, err := DecodeEstimateResp(EstimateResp{Count: 123.5}.Encode())
	if err != nil || er.Count != 123.5 {
		t.Fatalf("EstimateResp: %+v %v", er, err)
	}
	ee, err := DecodeErrorResp(ErrorResp{Code: CodeServerStreams, Msg: "full"}.Encode())
	if err != nil || ee.Code != CodeServerStreams || ee.Msg != "full" {
		t.Fatalf("ErrorResp: %+v %v", ee, err)
	}

	snap := &StatsSnapshot{
		OpenConns: 2, OpenStreams: 5, ConnsAccepted: 9, StreamsOpened: 11,
		RecordsServed: 1 << 33, BytesWritten: 1 << 34, SimIO: 1 << 35,
		Sessions: []SessionSnapshot{
			{ID: 1, OpenStreams: 3, Records: 100, SimIO: 42},
			{ID: 2, Batches: 7, BytesRead: 9},
		},
	}
	got, err := decodeStatsSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.RecordsServed != snap.RecordsServed || got.SimIO != snap.SimIO ||
		len(got.Sessions) != 2 || got.Sessions[0] != snap.Sessions[0] || got.Sessions[1] != snap.Sessions[1] {
		t.Fatalf("stats snapshot round-trip mismatch:\n got %+v\nwant %+v", got, snap)
	}

	// The stats frame's layout — 40 server fields, 10 per session, in wire
	// order — pinned by the digest of a snapshot whose every field differs,
	// recorded at PR 20's parent.
	full := &StatsSnapshot{
		OpenConns: 1, OpenStreams: 2, ConnsAccepted: 3, ConnsRejected: 4,
		StreamsOpened: 5, StreamsClosed: 6, StreamsReaped: 7,
		BatchesServed: 8, RecordsServed: 9, EstimatesServed: 10,
		RejectedServer: 11, RejectedConn: 12, RejectedDrain: 13, BadFrames: 14,
		BytesRead: 15, BytesWritten: 16, SimIO: 17,
		TransientErrors: 18, DegradedErrors: 19, MaintJobs: 20, MaintJobErrors: 21,
		RecordsIngested: 22, RecordsDeleted: 23, FlushesServed: 24, RejectedWrites: 25,
		MemViewRecords: 26, TombstonesPending: 27, DeltaLevels: 28, CompactionsRun: 29,
		RejectedThrottle: 30, WALBytes: 31, WALFsyncs: 32, WALReplayed: 33, WALSegments: 34,
		RejectedTenant: 35, TenantsActive: 36,
		HedgedReads: 37, HedgeWins: 38, Migrations: 39, ReplicasLive: 40,
		Sessions: []SessionSnapshot{{
			ID: 41, OpenStreams: 42, StreamsOpened: 43, StreamsReaped: 44,
			Batches: 45, Records: 46, Rejections: 47,
			BytesRead: 48, BytesWritten: 49, SimIO: 50,
		}},
	}
	const golden = "aff5d72bdfa3b652e291e937798d80fbb1b2e7eab0cdcfc46f272d8d75189118"
	if enc := full.Encode(); len(enc) != 412 || fmt.Sprintf("%x", sha256.Sum256(enc)) != golden {
		t.Fatalf("stats frame layout changed: %d bytes, sha256 %x", len(enc), sha256.Sum256(enc))
	}
	if back, err := decodeStatsSnapshot(full.Encode()); err != nil || !reflect.DeepEqual(back, full) {
		t.Fatalf("full stats snapshot does not round-trip: %+v (%v)", back, err)
	}
}

func TestDecodeRejectsTruncationAndTrailing(t *testing.T) {
	full := OpenStreamReq{ViewID: 1, Query: record.Box1D(3, 4)}.Encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeOpenStreamReq(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeOpenStreamReq(append(full, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A batch claiming more records than its bytes can hold must error
	// before allocating.
	claim := appendU32(appendU32(nil, 1), 0) // streamID=1, then eof byte missing entirely
	if _, err := DecodeBatchResp(claim); err == nil {
		t.Fatal("truncated batch accepted")
	}
	huge := append(appendU32(nil, 1), 0)              // streamID, eof=0
	huge = appendU32(huge, 1<<30)                     // one billion records claimed
	huge = append(huge, make([]byte, record.Size)...) // but one record's bytes
	if _, err := DecodeBatchResp(huge); err == nil {
		t.Fatal("batch with absurd count accepted")
	}
}
