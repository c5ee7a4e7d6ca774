package server

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sampleview/internal/record"
)

// fuzzSeedFrames returns one well-formed frame per message type, so the
// fuzzer starts from inputs that reach every decoder.
func fuzzSeedFrames() [][]byte {
	box := record.Box2D(-100, 100, 0, 1<<40)
	recs := []record.Record{{Key: 1, Amount: 2, Seq: 3}, {Key: -1, Amount: -2, Seq: 4}}
	snap := &StatsSnapshot{OpenConns: 1, RecordsServed: 99, Sessions: []SessionSnapshot{{ID: 7, Records: 42}}}
	msgs := []struct {
		t    FrameType
		body []byte
	}{
		{FOpenView, OpenViewReq{Name: "sale"}.Encode()},
		{FOpenStream, OpenStreamReq{ViewID: 1, Query: box}.Encode()},
		{FNextBatch, NextBatchReq{StreamID: 2, Max: 512}.Encode()},
		{FEstimate, EstimateReq{ViewID: 1, Query: record.Box1D(5, 9)}.Encode()},
		{FCancel, CancelReq{StreamID: 2}.Encode()},
		{FStats, nil},
		{FAppend, WriteReq{ViewID: 1, Records: recs}.Encode()},
		{FDeleteRecs, WriteReq{ViewID: 1, Records: recs[:1]}.Encode()},
		{FFlushView, FlushViewReq{ViewID: 1}.Encode()},
		{FAppendOK, WriteAck{ViewID: 1, N: 2}.Encode()},
		{FDeleteOK, WriteAck{ViewID: 1, N: 1}.Encode()},
		{FFlushOK, WriteAck{ViewID: 1, N: 3}.Encode()},
		{FViewInfo, ViewInfo{ViewID: 1, Dims: 2, Height: 6, Count: 1000}.Encode()},
		{FStreamOpened, StreamOpened{StreamID: 2}.Encode()},
		{FBatch, BatchResp{StreamID: 2, EOF: true, Records: recs}.Encode()},
		{FEstimateResult, EstimateResp{Count: 12.5}.Encode()},
		{FCancelOK, CancelReq{StreamID: 2}.Encode()},
		{FStatsResult, snap.Encode()},
		{FError, ErrorResp{Code: CodeServerStreams, Msg: "full"}.Encode()},
	}
	var out [][]byte
	for _, m := range msgs {
		f, err := AppendFrame(nil, m.t, m.body)
		if err != nil {
			continue
		}
		out = append(out, f)
	}
	return out
}

// decodeBody drives the per-type message decoder, mirroring the dispatch
// in session.handle and the client's response handling.
func decodeBody(t FrameType, body []byte) error {
	switch t {
	case FOpenView:
		_, err := DecodeOpenViewReq(body)
		return err
	case FOpenStream:
		_, err := DecodeOpenStreamReq(body)
		return err
	case FNextBatch:
		_, err := DecodeNextBatchReq(body)
		return err
	case FEstimate:
		_, err := DecodeEstimateReq(body)
		return err
	case FCancel, FCancelOK:
		_, err := DecodeCancelReq(body)
		return err
	case FAppend, FDeleteRecs:
		_, err := DecodeWriteReq(body)
		return err
	case FFlushView:
		_, err := DecodeFlushViewReq(body)
		return err
	case FAppendOK, FDeleteOK, FFlushOK:
		_, err := DecodeWriteAck(body)
		return err
	case FViewInfo:
		_, err := DecodeViewInfo(body)
		return err
	case FStreamOpened:
		_, err := DecodeStreamOpened(body)
		return err
	case FBatch:
		_, err := DecodeBatchResp(body)
		return err
	case FEstimateResult:
		_, err := DecodeEstimateResp(body)
		return err
	case FStatsResult:
		_, err := decodeStatsSnapshot(body)
		return err
	case FError:
		_, err := DecodeErrorResp(body)
		return err
	default:
		return nil
	}
}

// FuzzFrameDecode hammers the wire codec with arbitrary bytes: truncated,
// oversized and corrupt-length inputs must produce errors, never panics,
// and never allocations driven by a fabricated length prefix. Structurally
// valid frames must decode, re-encode and re-decode to the same message.
func FuzzFrameDecode(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	// Adversarial seeds: corrupt lengths, truncations, absurd claims.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame+1))
	huge := binary.LittleEndian.AppendUint32(nil, 20)
	huge = append(huge, byte(FBatch))
	huge = appendU32(huge, 1)
	huge = append(huge, 0)
	huge = appendU32(huge, 0xffffffff) // batch claiming 4G records
	f.Add(append(huge, make([]byte, 6)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk every frame in the input, like the session's read loop.
		rest := data
		for depth := 0; depth < 32; depth++ {
			ft, body, next, err := DecodeFrame(rest)
			if err != nil {
				break
			}
			// The no-copy decoder and the io.Reader path must agree.
			rt, rbody, rerr := NewFrameReader(bytes.NewReader(rest)).Next()
			if rerr != nil || rt != ft || !bytes.Equal(rbody, body) {
				t.Fatalf("DecodeFrame and FrameReader disagree: (%v, %d bytes, %v) vs (%v, %d bytes, %v)",
					ft, len(body), err, rt, len(rbody), rerr)
			}
			if derr := decodeBody(ft, body); derr == nil {
				// A decodable message must survive a re-encode round trip.
				reencodeCheck(t, ft, body)
			}
			rest = next
		}
		// Decoding arbitrary bodies directly must never panic either,
		// whatever type they claim to be.
		for _, ft := range []FrameType{FOpenView, FOpenStream, FNextBatch, FEstimate,
			FCancel, FAppend, FDeleteRecs, FFlushView, FAppendOK, FFlushOK,
			FViewInfo, FStreamOpened, FBatch, FEstimateResult, FStatsResult, FError} {
			_ = decodeBody(ft, data)
		}
	})
}

// reencodeCheck asserts decode → encode is the identity on the wire bytes
// for the message types with canonical encodings.
func reencodeCheck(t *testing.T, ft FrameType, body []byte) {
	t.Helper()
	var out []byte
	switch ft {
	case FOpenView:
		m, _ := DecodeOpenViewReq(body)
		out = m.Encode()
	case FOpenStream:
		m, _ := DecodeOpenStreamReq(body)
		out = m.Encode()
	case FNextBatch:
		m, _ := DecodeNextBatchReq(body)
		out = m.Encode()
	case FEstimate:
		m, _ := DecodeEstimateReq(body)
		out = m.Encode()
	case FCancel, FCancelOK:
		m, _ := DecodeCancelReq(body)
		out = m.Encode()
	case FAppend, FDeleteRecs:
		m, _ := DecodeWriteReq(body)
		out = m.Encode()
	case FFlushView:
		m, _ := DecodeFlushViewReq(body)
		out = m.Encode()
	case FAppendOK, FDeleteOK, FFlushOK:
		m, _ := DecodeWriteAck(body)
		out = m.Encode()
	case FViewInfo:
		m, _ := DecodeViewInfo(body)
		out = m.Encode()
	case FStreamOpened:
		m, _ := DecodeStreamOpened(body)
		out = m.Encode()
	case FBatch:
		m, _ := DecodeBatchResp(body)
		out = m.Encode()
		// The in-place and into-dst halves of the codec agree with it, and a
		// body re-addressed the way the router forwards it decodes to the
		// same batch under the new stream id.
		if framed := m.AppendTo([]byte{1, 2, 3, 4, byte(FBatch)}); !bytes.Equal(framed[5:], out) {
			t.Fatalf("Batch: AppendTo behind a header differs from Encode")
		}
		into, err := DecodeBatchInto(make([]record.Record, 1, 4), body)
		if err != nil || len(into.Records) != 1+len(m.Records) || into.EOF != m.EOF || into.Pos != m.Pos {
			t.Fatalf("Batch: DecodeBatchInto disagrees with DecodeBatchResp: %+v vs %+v (%v)", into, m, err)
		}
		fwd := append([]byte(nil), body...)
		split, raw, err := SplitBatchResp(fwd)
		if err != nil || len(raw) != len(m.Records)*record.Size || split.EOF != m.EOF || split.Pos != m.Pos {
			t.Fatalf("Batch: SplitBatchResp disagrees with DecodeBatchResp: %+v, %d bytes (%v)", split, len(raw), err)
		}
		SetBatchStream(fwd, m.StreamID^0x5a5a5a5a)
		m.StreamID ^= 0x5a5a5a5a
		if !bytes.Equal(fwd, m.Encode()) {
			t.Fatalf("Batch: a re-addressed body is not the batch's encoding under the new id")
		}
	case FError:
		m, _ := DecodeErrorResp(body)
		out = m.Encode()
	default:
		return // EstimateResp (NaN bit patterns) and stats (padding) skip byte-identity
	}
	if !bytes.Equal(out, body) {
		t.Fatalf("%v: re-encode changed the bytes:\n in %x\nout %x", ft, body, out)
	}
}
