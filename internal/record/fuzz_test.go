package record

import (
	"bytes"
	"testing"
)

// FuzzRecordCodec drives the codec from the field side: any record built
// from fuzzed fields must round-trip Marshal → Unmarshal to an identical
// record, the encoding must be exactly Size bytes, and re-encoding the
// decoded record must reproduce the same bytes.
func FuzzRecordCodec(f *testing.F) {
	f.Add(int64(0), int64(0), uint64(0), []byte{})
	f.Add(int64(-1), int64(1<<62), uint64(42), []byte("0123456789abcdef"))
	f.Add(int64(1<<30), int64(-1<<30), ^uint64(0), bytes.Repeat([]byte{0xa5}, PayloadSize+8))
	f.Fuzz(func(t *testing.T, key, amount int64, seq uint64, payload []byte) {
		r := Record{Key: key, Amount: amount, Seq: seq}
		copy(r.Payload[:], payload)

		buf := make([]byte, Size)
		if n := r.Marshal(buf); n != Size {
			t.Fatalf("Marshal wrote %d bytes, want %d", n, Size)
		}
		var got Record
		got.Unmarshal(buf)
		if got != r {
			t.Fatalf("round-trip mismatch:\n in: %+v\nout: %+v", r, got)
		}
		buf2 := make([]byte, Size)
		got.Marshal(buf2)
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("re-encoding the decoded record changed the bytes")
		}
	})
}

// FuzzUnmarshalMarshal checks that decoding arbitrary bytes never panics
// and that decode-encode is the identity on any Size-byte buffer.
func FuzzUnmarshalMarshal(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x00}, Size))
	f.Add(bytes.Repeat([]byte{0xff}, Size))
	seed := make([]byte, Size)
	for i := range seed {
		seed[i] = byte(i)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < Size {
			return
		}
		var r Record
		r.Unmarshal(data)
		out := make([]byte, Size)
		r.Marshal(out)
		if !bytes.Equal(out, data[:Size]) {
			t.Fatalf("decode-encode not identity")
		}
	})
}

// FuzzContainsEncoded: on any Size bytes and any box — one or two
// dimensions, empty, degenerate, full-domain — the predicate decided on the
// encoded form is the predicate decided on the decoded record.
func FuzzContainsEncoded(f *testing.F) {
	const minI, maxI = int64(-1 << 63), int64(1<<63 - 1)
	rec := func(key, amount int64) []byte {
		buf := make([]byte, Size)
		(&Record{Key: key, Amount: amount, Seq: 9}).Marshal(buf)
		return buf
	}
	f.Add(rec(5, 5), false, int64(0), int64(10), int64(0), int64(0))  // 1-d, inside
	f.Add(rec(5, 50), true, int64(0), int64(10), int64(0), int64(10)) // 2-d, amount outside
	f.Add(rec(5, 5), true, int64(10), int64(0), minI, maxI)           // empty first dimension
	f.Add(rec(5, 5), true, minI, maxI, int64(1), int64(0))            // empty second dimension
	f.Add(rec(minI, maxI), true, minI, maxI, minI, maxI)              // full domain, edge record
	f.Add(rec(7, -7), true, int64(7), int64(7), int64(-7), int64(-7)) // Lo == Hi
	f.Add(rec(maxI, minI), true, maxI, maxI, minI, minI)              // Lo == Hi at the edges
	f.Add(rec(minI, 0), false, minI+1, maxI, int64(0), int64(0))      // one below Lo at the edge
	f.Add(bytes.Repeat([]byte{0xff}, Size+3), false, int64(-1), int64(-1), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, src []byte, twoD bool, keyLo, keyHi, amtLo, amtHi int64) {
		if len(src) < Size {
			return
		}
		b := Box1D(keyLo, keyHi)
		if twoD {
			b = Box2D(keyLo, keyHi, amtLo, amtHi)
		}
		var r Record
		r.Unmarshal(src)
		if got, want := b.ContainsEncoded(src), b.ContainsRecord(&r); got != want {
			t.Fatalf("%v on key %d amount %d: encoded test says %v, decoded test %v", b, r.Key, r.Amount, got, want)
		}
	})
}
