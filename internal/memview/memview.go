// Package memview implements the in-memory head of the live write path: a
// sorted ingest buffer that accepts inserts and tombstone deletes while
// staying snapshot-readable. A Buffer fills until the owner seals it, at
// which point its immutable Snapshot is flushed to an on-disk differential
// level (internal/lsm) and a fresh Buffer takes its place.
//
// Records are identified by their unique Seq. A Delete whose target is
// still sitting in the same buffer annihilates it in place (the pair never
// reaches disk); otherwise the delete is kept as a tombstone carrying the
// full record, so query-time predicate filtering and count estimates can
// see which region of the key space the delete affects. Seqs are unique
// over the lifetime of a view and a deleted Seq is never reinserted.
package memview

import (
	"errors"
	"sort"
	"sync"

	"sampleview/internal/record"
)

// ErrSealed is returned by Insert and Delete after Seal: a sealed buffer is
// immutable and owned by the flush in progress.
var ErrSealed = errors.New("memview: buffer is sealed")

// Buffer is the mutable in-memory ingest buffer. It is safe for concurrent
// use; Snapshot may be called at any time without blocking writers for
// longer than a map copy.
type Buffer struct {
	mu      sync.Mutex
	inserts map[uint64]record.Record // guarded by mu; keyed by Seq
	tombs   map[uint64]record.Record // guarded by mu; keyed by Seq
	sealed  bool                     // guarded by mu
	// snap is the snapshot of the current contents, nil once a write has
	// made it stale: snapshots are immutable, so every stream opened between
	// two writes shares one.
	snap *Snapshot // guarded by mu
}

// New returns an empty buffer.
func New() *Buffer {
	return &Buffer{
		inserts: make(map[uint64]record.Record),
		tombs:   make(map[uint64]record.Record),
	}
}

// Insert adds a record to the buffer. Inserting a Seq already present
// overwrites the previous version (last write wins).
func (b *Buffer) Insert(rec record.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sealed {
		return ErrSealed
	}
	b.inserts[rec.Seq] = rec
	b.snap = nil
	return nil
}

// Delete removes the record with rec's Seq from the view. If the record is
// still buffered here the pair annihilates immediately; otherwise a
// tombstone is kept and applied to the on-disk levels and base at query,
// merge and fold time.
func (b *Buffer) Delete(rec record.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sealed {
		return ErrSealed
	}
	b.snap = nil
	if _, ok := b.inserts[rec.Seq]; ok {
		delete(b.inserts, rec.Seq)
		return nil
	}
	b.tombs[rec.Seq] = rec
	return nil
}

// Len returns the number of buffered live inserts.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.inserts)
}

// Tombstones returns the number of buffered tombstones.
func (b *Buffer) Tombstones() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.tombs)
}

// Snapshot returns an immutable, deterministically ordered copy of the
// buffer's current contents. The buffer keeps filling afterwards; the
// snapshot does not change. Callers must not modify it: until the next
// write, every call returns the same slices.
func (b *Buffer) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapshotLocked()
}

// Seal freezes the buffer (subsequent Insert/Delete return ErrSealed) and
// returns its final snapshot for flushing.
func (b *Buffer) Seal() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sealed = true
	return b.snapshotLocked()
}

func (b *Buffer) snapshotLocked() Snapshot {
	if b.snap != nil {
		return *b.snap
	}
	s := Snapshot{
		Inserts: make([]record.Record, 0, len(b.inserts)),
		Tombs:   make([]record.Record, 0, len(b.tombs)),
	}
	for _, rec := range b.inserts {
		s.Inserts = append(s.Inserts, rec)
	}
	for _, rec := range b.tombs {
		s.Tombs = append(s.Tombs, rec)
	}
	// Map iteration order is randomized; sort by the unique Seq so
	// snapshots — and everything built from them, from flushed level files
	// to per-stream shuffles — are deterministic for a given history.
	sort.Slice(s.Inserts, func(i, j int) bool { return s.Inserts[i].Seq < s.Inserts[j].Seq })
	sort.Slice(s.Tombs, func(i, j int) bool { return s.Tombs[i].Seq < s.Tombs[j].Seq })
	b.snap = &s
	return s
}

// Snapshot is an immutable point-in-time copy of a Buffer, both slices
// sorted by Seq. The zero value is an empty snapshot.
type Snapshot struct {
	Inserts []record.Record
	Tombs   []record.Record
}

// Empty reports whether the snapshot holds neither inserts nor tombstones.
func (s Snapshot) Empty() bool { return len(s.Inserts) == 0 && len(s.Tombs) == 0 }

// MatchingInserts appends the buffered inserts matching q to dst.
func (s Snapshot) MatchingInserts(dst []record.Record, q record.Box) []record.Record {
	for i := range s.Inserts {
		if q.ContainsRecord(&s.Inserts[i]) {
			dst = append(dst, s.Inserts[i])
		}
	}
	return dst
}

// Deleted reports whether seq is tombstoned in this snapshot.
func (s Snapshot) Deleted(seq uint64) bool {
	i := sort.Search(len(s.Tombs), func(i int) bool { return s.Tombs[i].Seq >= seq })
	return i < len(s.Tombs) && s.Tombs[i].Seq == seq
}
