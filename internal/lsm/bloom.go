package lsm

import "sampleview/internal/splitmix"

// Each delta level carries a bloom filter over its tombstone Seqs so the
// query path can prune levels while vetting base draws: a negative filter
// test proves the level holds no tombstone for the Seq and costs no I/O;
// only positive tests pay the binary search over the level's on-disk
// tombstone region. 10 bits per key with 7 probes gives the standard ~1%
// false-positive rate, so with any realistic delete volume almost every
// base draw is vetted entirely in memory.
const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
)

// bloomFilter is an in-memory double-hashing bloom filter over record Seqs.
// Filters are built at flush/compaction time, serialized into the delta
// file, and loaded whole when the level is opened.
type bloomFilter struct {
	bits []uint64
	m    uint64 // number of bits; always a multiple of 64
}

// newBloom sizes an empty filter for n keys.
func newBloom(n int) *bloomFilter {
	m := uint64(n) * bloomBitsPerKey
	if m < 64 {
		m = 64
	}
	m = (m + 63) &^ 63
	return &bloomFilter{bits: make([]uint64, m/64), m: m}
}

// bloomFromBits reconstructs a filter from its serialized words.
func bloomFromBits(bits []uint64) *bloomFilter {
	return &bloomFilter{bits: bits, m: uint64(len(bits)) * 64}
}

func (f *bloomFilter) probes(seq uint64) (h1, h2 uint64) {
	h1 = splitmix.Mix(seq)
	h2 = splitmix.Mix(h1^0x6a09e667f3bcc909) | 1
	return h1, h2
}

func (f *bloomFilter) add(seq uint64) {
	h1, h2 := f.probes(seq)
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % f.m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (f *bloomFilter) mayContain(seq uint64) bool {
	h1, h2 := f.probes(seq)
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % f.m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
