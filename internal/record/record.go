// Package record defines the fixed-size database record used throughout the
// reproduction, together with the range and box predicate types that sample
// views are queried with.
//
// The paper's evaluation uses a synthetic SALE relation with 100-byte
// records, a temporal attribute DAY used as the (first) indexed key, and a
// numeric attribute AMOUNT used as the second dimension in the
// multi-dimensional experiments. Record mirrors that layout exactly: two
// int64 key attributes, a unique sequence number (used by tests to check
// sampling semantics such as "without replacement"), and an opaque payload
// that pads the record to exactly 100 bytes.
package record

import (
	"encoding/binary"
	"fmt"
)

// Size is the on-disk size of one encoded record in bytes. It matches the
// 100-byte records used in the paper's experiments.
const Size = 100

// PayloadSize is the number of opaque payload bytes in each record.
const PayloadSize = Size - 24

// NumDims is the number of orderable key attributes a record carries.
const NumDims = 2

// Record is one tuple of the SALE relation.
type Record struct {
	Key     int64 // DAY: primary indexed attribute (dimension 0)
	Amount  int64 // AMOUNT: second indexed attribute (dimension 1)
	Seq     uint64
	Payload [PayloadSize]byte
}

// Coord returns the record's coordinate along dimension d (0 = Key,
// 1 = Amount). It panics if d is out of range; callers validate dimension
// counts when a view is created.
func (r *Record) Coord(d int) int64 {
	switch d {
	case 0:
		return r.Key
	case 1:
		return r.Amount
	default:
		panic(fmt.Sprintf("record: invalid dimension %d", d))
	}
}

// Marshal encodes r into dst, which must be at least Size bytes long, and
// returns the number of bytes written.
func (r *Record) Marshal(dst []byte) int {
	_ = dst[Size-1] // bounds check hint
	binary.LittleEndian.PutUint64(dst[0:8], uint64(r.Key))
	binary.LittleEndian.PutUint64(dst[8:16], uint64(r.Amount))
	binary.LittleEndian.PutUint64(dst[16:24], r.Seq)
	copy(dst[24:Size], r.Payload[:])
	return Size
}

// Unmarshal decodes r from src, which must be at least Size bytes long.
func (r *Record) Unmarshal(src []byte) {
	_ = src[Size-1]
	r.Key = int64(binary.LittleEndian.Uint64(src[0:8]))
	r.Amount = int64(binary.LittleEndian.Uint64(src[8:16]))
	r.Seq = binary.LittleEndian.Uint64(src[16:24])
	copy(r.Payload[:], src[24:Size])
}

// AppendBatch decodes n consecutive records from src (at least n*Size bytes
// long) and appends them to dst, returning the extended slice. It is the
// batch counterpart of Unmarshal for whole-section decoding: each record is
// decoded in place in the grown slice instead of being built on the stack
// and copied in by append, so a page decodes with one growth check and no
// per-record copy.
func AppendBatch(dst []Record, src []byte, n int) []Record {
	if n <= 0 {
		return dst
	}
	_ = src[n*Size-1]
	base := len(dst)
	if need := base + n; cap(dst) < need {
		grown := make([]Record, base, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	for i := 0; i < n; i++ {
		dst[base+i].Unmarshal(src[i*Size:])
	}
	return dst
}

// ContainsEncoded is ContainsRecord on the encoded form: both indexed
// attributes lead the encoding (Marshal), so src (at least Size bytes long)
// is tested without being decoded.
func (b Box) ContainsEncoded(src []byte) bool {
	_ = src[Size-1]
	for d, r := range b.dims[:b.n] {
		if !r.Contains(int64(binary.LittleEndian.Uint64(src[8*d:]))) {
			return false
		}
	}
	return true
}

// AppendMatching is AppendBatch under a predicate: of the n consecutive
// records encoded in src it decodes and appends to dst only those inside b,
// in order. A record outside b costs a load and a compare or two.
func AppendMatching(dst []Record, src []byte, n int, b Box) []Record {
	for src = src[:max(n, 0)*Size]; len(src) > 0; src = src[Size:] {
		if !b.ContainsEncoded(src) {
			continue
		}
		if len(dst) == cap(dst) {
			dst = append(dst, Record{})[:len(dst)]
		}
		dst = dst[:len(dst)+1]
		dst[len(dst)-1].Unmarshal(src)
	}
	return dst
}
