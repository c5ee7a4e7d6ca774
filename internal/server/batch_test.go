package server

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sampleview"
	"sampleview/internal/record"
)

// referenceBatchBody is the FBatch body encoder as it stood before the body
// was encoded in place: one record at a time through a stack buffer, the
// slice append-grown. The in-place codec must reproduce it byte for byte.
func referenceBatchBody(m BatchResp) []byte {
	b := binary.LittleEndian.AppendUint32(nil, m.StreamID)
	if m.EOF {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Records)))
	var buf [record.Size]byte
	for i := range m.Records {
		m.Records[i].Marshal(buf[:])
		b = append(b, buf[:]...)
	}
	if m.Pos >= 0 {
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Pos))
	}
	return b
}

func batchOf(n int) []record.Record {
	recs := genRecords(n, uint64(n)+3)
	for i := range recs {
		recs[i].Payload[i%record.PayloadSize] = byte(i)
	}
	return recs
}

// TestBatchCodecInPlace: for empty, single, wire-default and largest legal
// batches, with and without the position field, the in-place encoder writes
// the reference bytes (alone or behind a frame header already in the
// buffer), and both decoders — into a fresh slice, or appended to the
// caller's — return the records that went in.
func TestBatchCodecInPlace(t *testing.T) {
	for _, n := range []int{0, 1, 256, maxBatchLimit} {
		recs := batchOf(n)
		for _, pos := range []int64{-1, 0, 1 << 40} {
			m := BatchResp{StreamID: 0xa1b2c3d4, EOF: n%2 == 1, Records: recs, Pos: pos}
			want := referenceBatchBody(m)
			if got := m.Encode(); !bytes.Equal(got, want) {
				t.Fatalf("n=%d pos=%d: Encode differs from the reference encoding", n, pos)
			}
			head := []byte{9, 9, 9, 9, byte(FBatch)}
			framed := m.AppendTo(append([]byte(nil), head...))
			if !bytes.Equal(framed[:len(head)], head) || !bytes.Equal(framed[len(head):], want) {
				t.Fatalf("n=%d pos=%d: AppendTo behind a header differs from the reference encoding", n, pos)
			}
			if len(framed) > headerSize+MaxFrame {
				t.Fatalf("n=%d: a batch of the largest legal size makes a %d-byte frame, over MaxFrame", n, len(framed))
			}

			dec, err := DecodeBatchResp(want)
			if err != nil || dec.StreamID != m.StreamID || dec.EOF != m.EOF || dec.Pos != pos || len(dec.Records) != n {
				t.Fatalf("n=%d pos=%d: DecodeBatchResp = %+v, %v", n, pos, dec, err)
			}
			prefix := batchOf(3)
			into, err := DecodeBatchInto(append([]record.Record(nil), prefix...), want)
			if err != nil || len(into.Records) != 3+n || into.Pos != pos || into.EOF != m.EOF {
				t.Fatalf("n=%d pos=%d: DecodeBatchInto: %d records, %v", n, pos, len(into.Records), err)
			}
			for i := range recs {
				if dec.Records[i] != recs[i] || into.Records[3+i] != recs[i] {
					t.Fatalf("n=%d pos=%d: record %d does not survive the round trip", n, pos, i)
				}
			}
			for i := range prefix {
				if into.Records[i] != prefix[i] {
					t.Fatalf("n=%d: DecodeBatchInto disturbed the records already in dst", n)
				}
			}

			// What a router does: read the fields off the body without
			// decoding it, re-address it, pass it on.
			fwd := append([]byte(nil), want...)
			split, raw, err := SplitBatchResp(fwd)
			if err != nil || len(raw) != n*record.Size || split.EOF != m.EOF || split.Pos != pos || split.Records != nil {
				t.Fatalf("n=%d pos=%d: SplitBatchResp = %+v, %d bytes, %v", n, pos, split, len(raw), err)
			}
			SetBatchStream(fwd, 77)
			m.StreamID = 77
			if !bytes.Equal(fwd, referenceBatchBody(m)) {
				t.Fatalf("n=%d pos=%d: a re-addressed body is not the encoding of the batch under the new id", n, pos)
			}
		}
	}
	// A bad body leaves the caller's slice alone.
	dst := batchOf(2)
	bad := referenceBatchBody(BatchResp{Records: batchOf(4), Pos: 4})
	got, err := DecodeBatchInto(dst, bad[:len(bad)-3])
	if err == nil || len(got.Records) != 0 || len(dst) != 2 {
		t.Fatalf("truncated body: %d records, err %v", len(got.Records), err)
	}
}

// TestFrameReaderReusesOneBuffer: frames of one size are read through one
// buffer with no allocation per frame; a frame past KeepBuf is served and
// its buffer let go afterwards; frames split across reads and packed
// several to a read come out whole.
func TestFrameReaderReusesOneBuffer(t *testing.T) {
	var wire bytes.Buffer
	body := bytes.Repeat([]byte{0x5a}, 300)
	frame, _ := AppendFrame(nil, FBatch, body)
	fr := NewFrameReader(&wire)
	next := func() {
		wire.Write(frame)
		ft, got, err := fr.Next()
		if err != nil || ft != FBatch || !bytes.Equal(got, body) {
			t.Fatalf("frame: %v, %d bytes, %v", ft, len(got), err)
		}
	}
	next()
	if n := testing.AllocsPerRun(50, next); n != 0 {
		t.Fatalf("reading a steady stream of frames allocates %.0f times per frame, want 0", n)
	}

	big, _ := AppendFrame(nil, FStatsResult, make([]byte, KeepBuf+1000))
	wire.Write(big)
	if _, got, err := fr.Next(); err != nil || len(got) != KeepBuf+1000 {
		t.Fatalf("large frame: %d bytes, %v", len(got), err)
	}
	next()
	if cap(fr.buf) > KeepBuf {
		t.Fatalf("reader still holds a %d-byte buffer after the large frame went by", cap(fr.buf))
	}

	// One byte at a time, then three frames in one read.
	fr = NewFrameReader(iotestOneByte{&wire})
	wire.Write(frame)
	if _, got, err := fr.Next(); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("byte-at-a-time frame: %d bytes, %v", len(got), err)
	}
	fr = NewFrameReader(&wire)
	for i := 0; i < 3; i++ {
		wire.Write(frame)
	}
	for i := 0; i < 3; i++ {
		if _, got, err := fr.Next(); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("packed frame %d: %d bytes, %v", i, len(got), err)
		}
	}
}

type iotestOneByte struct{ r *bytes.Buffer }

func (o iotestOneByte) Read(p []byte) (int, error) { return o.r.Read(p[:1]) }

// TestLentBatchSurvivesReap pins the lifetime hazard of the lent record
// buffer: the idle reaper may Close a served stream while its session is
// still encoding the batch Sample just lent it, and Close hands the stream's
// working memory to the next stream on the view. The lent batch must be
// neither written by that (a data race, caught under -race) nor changed (the
// encodings are compared). Both built-in sources.
func TestLentBatchSurvivesReap(t *testing.T) {
	recs := genRecords(40_000, 31)
	v, err := sampleview.CreateFromSlice("", recs, sampleview.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	sv, err := sampleview.CreateSharded("", recs, sampleview.ShardedOptions{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	for name, src := range map[string]ViewSource{"local": LocalSource(v), "sharded": ShardedSource(sv)} {
		for round := 0; round < 10; round++ {
			st, err := src.OpenStream(record.Box1D(0, 1<<19))
			if err != nil {
				t.Fatal(err)
			}
			lent, err := st.Sample(256)
			if err != nil || len(lent) != 256 {
				t.Fatalf("%s: Sample: %d records, %v", name, len(lent), err)
			}
			want := BatchResp{Records: lent, Pos: 256}.Encode()
			reaped := make(chan struct{})
			go func() {
				defer close(reaped)
				st.Close() // the reaper
				next, err := src.OpenStream(record.Box1D(1<<18, 1<<20))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := next.Sample(4096); err != nil {
					t.Error(err)
				}
				next.Close()
			}()
			during := BatchResp{Records: lent, Pos: 256}.Encode() // the session, mid-encode
			<-reaped
			after := BatchResp{Records: lent, Pos: 256}.Encode()
			if !bytes.Equal(during, want) || !bytes.Equal(after, want) {
				t.Fatalf("%s: the lent batch changed under a concurrent reap and reuse", name)
			}
			if _, err := st.Sample(1); err != sampleview.ErrStreamClosed {
				t.Fatalf("%s: Sample after the reap = %v, want ErrStreamClosed", name, err)
			}
		}
	}
}

// TestReapDuringServe drives the same hazard through the whole server: one
// client pulls batches while the reaper, with every stream always idle
// enough, runs flat out. A pull either delivers a full batch of matching,
// never-repeated records or reports the stream reaped; under -race nothing
// the session encodes is written by a concurrent Close.
func TestReapDuringServe(t *testing.T) {
	recs := genRecords(30_000, 37)
	srv, _, addr, _ := startServer(t, Config{IdleTimeout: time.Nanosecond}, "sale", recs)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.reapIdle()
				runtime.Gosched()
			}
		}
	}()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	q := record.Box1D(0, 1<<19)
	served, reaped := 0, 0
	for op := 0; op < 60; op++ {
		s, err := rv.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for b := 0; b < 8; b++ {
			batch, err := s.NextBatch()
			if se, ok := err.(*Error); ok && se.Code == CodeStreamReaped {
				reaped++
				break
			}
			if err != nil || len(batch) != 256 {
				t.Fatalf("pull: %d records, %v", len(batch), err)
			}
			for i := range batch {
				if !q.ContainsRecord(&batch[i]) || seen[batch[i].Seq] {
					t.Fatalf("op %d: record %d of a served batch is outside the predicate or a repeat", op, i)
				}
				seen[batch[i].Seq] = true
			}
			served++
		}
		s.Close()
	}
	close(stop)
	wg.Wait()
	t.Logf("%d batches served, %d streams reaped under them", served, reaped)
	if served == 0 {
		t.Fatal("every pull lost to the reaper; nothing was checked")
	}
}

// fixedSource is a ViewSource whose streams lend the same batch forever and
// allocate nothing, so a round trip's allocations are the serving path's own.
type fixedSource struct{ batch []record.Record }

func (f fixedSource) Dims() int                                 { return 1 }
func (f fixedSource) Height() int                               { return 1 }
func (f fixedSource) Count() int64                              { return 1 << 30 }
func (f fixedSource) EstimateCount(record.Box) (float64, error) { return 1 << 30, nil }
func (f fixedSource) SimNow() time.Duration                     { return 0 }
func (f fixedSource) OpenStream(record.Box) (ViewStream, error) { return fixedStream(f), nil }
func (f fixedSource) OpenStreamSeeded(record.Box, uint64) (ViewStream, error) {
	return fixedStream(f), nil
}

type fixedStream fixedSource

func (f fixedStream) Sample(n int) ([]record.Record, error) {
	return f.batch[:min(n, len(f.batch))], nil
}
func (f fixedStream) Close() error          { return nil }
func (f fixedStream) SimNow() time.Duration { return 0 }

// serveFixed serves an endless stream of batch as view "fixed" on a loopback
// listener and returns the address.
func serveFixed(t testing.TB, batch []record.Record) string {
	t.Helper()
	srv := New(Config{})
	srv.AddSource("fixed", fixedSource{batch})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
	})
	return ln.Addr().String()
}

// allocsPerPull measures what the whole process — client, and every server
// goroutine behind it — allocates per NextBatch round trip in steady state.
func allocsPerPull(t *testing.T, s *RemoteStream, pulls int) (mallocs, bytes float64) {
	t.Helper()
	pull := func() {
		if batch, err := s.NextBatch(); err != nil || len(batch) != 256 {
			t.Fatalf("pull: %d records, %v", len(batch), err)
		}
	}
	for i := 0; i < 8; i++ {
		pull() // connection buffers reach their size
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pulls; i++ {
		pull()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(pulls), float64(after.TotalAlloc-before.TotalAlloc) / float64(pulls)
}

// TestBatchRoundTripAllocatesOneSlice is the serving path's allocation gate:
// end to end — session reading the request, source lending its batch, frame
// encoded in place, client reading the response into its connection buffer
// and decoding it once — an FNextBatch round trip allocates the record slice
// the client returns and, beyond it, nothing that grows with the batch.
func TestBatchRoundTripAllocatesOneSlice(t *testing.T) {
	cl, err := Dial(serveFixed(t, batchOf(256)))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rv, err := cl.OpenView("fixed")
	if err != nil {
		t.Fatal(err)
	}
	s, err := rv.Query(record.Box1D(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	mallocs, bytes := allocsPerPull(t, s, 200)
	slice := float64(256 * unsafe.Sizeof(record.Record{}))
	t.Logf("%.2f allocations, %.0f bytes per round trip (the record slice is %.0f)", mallocs, bytes, slice)
	if mallocs > 2 || bytes > 1.05*slice+256 {
		t.Fatalf("an FNextBatch round trip allocates %.2f times, %.0f bytes; want the client's %.0f-byte record slice and no more", mallocs, bytes, slice)
	}
}
