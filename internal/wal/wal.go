// Package wal is the write-ahead log that makes the live write path
// crash-consistent. Every memview mutation (insert or tombstone delete) is
// appended to the log as a checksummed, length-prefixed record before it is
// acknowledged; on open, the log is replayed to rebuild the memview exactly
// as it was at the last durable barrier.
//
// # Format
//
// A log is a sequence of segment files named <prefix>.wal000000,
// <prefix>.wal000001, ... Each segment is a stream of frames:
//
//	uint32  payload length
//	uint32  CRC-32C of the payload
//	payload
//
// with payload = uint64 LSN | uint8 op | body, where op 1 (insert) and op 2
// (delete) both carry one encoded record — a tombstone keeps its full
// coordinates so replay rebuilds the memview exactly. LSNs are
// assigned monotonically from 1 and never reused; the LSM manifest records
// the highest LSN folded into a durable level (AppliedLSN), so replay after
// a crash between flush and truncation skips already-applied frames instead
// of double-applying them — replay is idempotent by construction.
//
// A torn tail (short frame or checksum mismatch at the end of the last
// segment, the signature of a power cut mid-write) is not an error: replay
// stops at the last clean frame and the tail is truncated away before new
// appends. The same corruption anywhere else is real damage and fails open.
//
// # Group commit
//
// Appends go to an in-memory buffer and are not durable until Commit.
// Commit parks the caller on the current commit cohort: one caller becomes
// the leader, optionally waits a group-commit window for more writers to
// join, then flushes the buffer and issues a single fsync that acks the
// whole cohort. Under writer fan-in this amortizes the dominant cost (the
// sync barrier) over many records; a lone writer committing each append
// syncs once per commit. The simulated clock is charged for every page write and
// barrier, so group-commit batching shows up in simulated throughput the
// same way it would on hardware.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

const (
	frameHeader = 8 // uint32 length + uint32 CRC-32C

	opInsert = 1
	opDelete = 2

	// Both ops carry the full encoded record: a delete's tombstone keeps its
	// coordinates so replay rebuilds the memview exactly (tombstone bounds
	// feed query-time population estimates, not just Seq matching).
	payloadSize = 8 + 1 + record.Size // lsn + op + record

	// maxPayload bounds a frame's declared length; anything larger is
	// corruption, not a frame we could ever have written.
	maxPayload = 1 << 10

	// DefaultSegmentBytes is the rotation threshold when Options leaves it 0.
	DefaultSegmentBytes = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Op is one logged operation surfaced by replay.
type Op struct {
	// LSN is the operation's log sequence number.
	LSN uint64
	// Delete marks a tombstone; Rec then carries the deleted record's full
	// coordinates, not just its Seq.
	Delete bool
	// Rec is the inserted (or tombstoned) record.
	Rec record.Record
}

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold; 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// GroupWindow is how long a commit leader waits for more writers to
	// join its cohort before syncing. 0 syncs immediately with whatever has
	// been appended.
	GroupWindow time.Duration
	// Sim is required. Its shared clock is charged for page writes, the Sim
	// for sync barriers, and the Sim is consulted for crash injection.
	Sim *iosim.Sim
}

// Stats is a snapshot of the log's activity counters.
type Stats struct {
	// Bytes is the total frame bytes flushed to segment files.
	Bytes int64
	// Fsyncs counts durability barriers issued.
	Fsyncs int64
	// Appends counts operations appended.
	Appends int64
	// Replayed counts operations replayed by Open.
	Replayed int64
	// Segments is the number of live segment files.
	Segments int64
}

// segInfo describes one finalized (rotated-away) segment.
type segInfo struct {
	path   string
	maxLSN uint64 // highest LSN the segment holds
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	family string // segment n is pagefile.GenPath(family, n)
	opts   Options
	sim    *iosim.Sim
	fid    iosim.FileID

	mu   sync.Mutex
	cond *sync.Cond // signals cohort completion; tied to mu

	f      *pagefile.AppendFile // current segment, nil after Close
	seg    uint64               // current segment index
	size   int64                // flushed bytes in the current segment
	sealed []segInfo            // finalized segments not yet truncated away
	buf    []byte               // appended, not yet flushed frames

	nextLSN    uint64 // next LSN to assign
	lastLSN    uint64 // highest LSN appended
	durableLSN uint64 // highest LSN covered by an fsync
	segMaxLSN  uint64 // highest LSN flushed into the current segment

	syncing bool  // a cohort leader is mid-flush
	dead    error // sticky: power cut or unrecoverable I/O error

	appends  int64
	bytes    int64
	fsyncs   int64
	replayed int64
}

// Open opens (creating if absent) the log rooted at prefix, replays every
// clean frame in LSN order, truncates any torn tail, and returns the log
// positioned for appending together with the replayed operations. Callers
// filter the ops against their durable AppliedLSN watermark.
func Open(prefix string, opts Options) (*Log, []Op, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Sim == nil {
		return nil, nil, fmt.Errorf("wal: open %s: no simulated disk", prefix)
	}
	l := &Log{family: prefix + ".wal", opts: opts, sim: opts.Sim, fid: opts.Sim.Register(), nextLSN: 1}
	l.cond = sync.NewCond(&l.mu)

	idxs, err := pagefile.Generations(l.family)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scan segments: %w", err)
	}
	var ops []Op
	for i, idx := range idxs {
		path := pagefile.GenPath(l.family, idx)
		data, err := pagefile.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read segment: %w", err)
		}
		segOps, clean, err := replaySegment(data)
		if err != nil && i != len(idxs)-1 {
			// Mid-log damage is real corruption, not a crash artifact.
			return nil, nil, fmt.Errorf("wal: segment %s: %w", path, err)
		}
		var maxLSN uint64
		for _, op := range segOps {
			if op.LSN > maxLSN {
				maxLSN = op.LSN
			}
		}
		ops = append(ops, segOps...)
		if i == len(idxs)-1 {
			// Tail segment: drop the torn tail (power-cut artifact) so new
			// frames append to a clean boundary, and keep it as the live
			// segment.
			if int64(clean) != int64(len(data)) {
				if err := pagefile.Truncate(path, int64(clean)); err != nil {
					return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
				}
			}
			l.seg = idx
			l.size = int64(clean)
			l.segMaxLSN = maxLSN
		} else {
			l.sealed = append(l.sealed, segInfo{path: path, maxLSN: maxLSN})
		}
	}
	for _, op := range ops {
		if op.LSN >= l.nextLSN {
			l.nextLSN = op.LSN + 1
		}
	}
	l.lastLSN = l.nextLSN - 1
	l.durableLSN = l.lastLSN // everything replayed came off disk
	l.replayed = int64(len(ops))

	f, err := pagefile.OpenAppend(pagefile.GenPath(l.family, l.seg))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open segment: %w", err)
	}
	l.f = f
	sort.Slice(ops, func(i, j int) bool { return ops[i].LSN < ops[j].LSN })
	return l, ops, nil
}

// RemoveAll deletes every log segment belonging to prefix. Used when a
// fresh view is created over a path that may hold segments from an earlier
// incarnation.
func RemoveAll(prefix string) error {
	idxs, err := pagefile.Generations(prefix + ".wal")
	for i := 0; err == nil && i < len(idxs); i++ {
		err = pagefile.Remove(pagefile.GenPath(prefix+".wal", idxs[i]))
	}
	return err
}

// replaySegment decodes every clean frame of one segment image. It returns
// the decoded operations, the byte offset of the first unusable frame (the
// clean prefix length), and a non-nil error when the remainder is not a
// plausible torn tail (garbage mid-segment decodes the same way, so the
// caller decides whether damage in this position is tolerable).
func replaySegment(data []byte) (ops []Op, clean int, err error) {
	off := 0
	for {
		if len(data)-off < frameHeader {
			if off != len(data) {
				return ops, off, fmt.Errorf("short frame header (%d trailing bytes)", len(data)-off)
			}
			return ops, off, nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n < 9 || n > maxPayload {
			return ops, off, fmt.Errorf("implausible frame length %d", n)
		}
		if len(data)-off-frameHeader < n {
			return ops, off, fmt.Errorf("short frame payload (want %d, have %d)", n, len(data)-off-frameHeader)
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return ops, off, fmt.Errorf("frame checksum mismatch at offset %d", off)
		}
		if payload[8] != opInsert && payload[8] != opDelete {
			return ops, off, fmt.Errorf("unknown op %d", payload[8])
		}
		if n != payloadSize {
			return ops, off, fmt.Errorf("op %d frame length %d", payload[8], n)
		}
		op := Op{LSN: binary.LittleEndian.Uint64(payload[0:8]), Delete: payload[8] == opDelete}
		op.Rec.Unmarshal(payload[9:])
		ops = append(ops, op)
		off += frameHeader + n
	}
}

// appendFrame encodes one frame of rec into the commit buffer and returns
// its LSN.
func (l *Log) appendFrame(op byte, rec *record.Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		return 0, l.dead
	}
	if l.f == nil {
		return 0, fmt.Errorf("wal: log is closed")
	}
	lsn := l.nextLSN
	l.nextLSN++
	start := len(l.buf)
	l.buf = append(l.buf, make([]byte, frameHeader+payloadSize)...)
	payload := l.buf[start+frameHeader:]
	binary.LittleEndian.PutUint64(payload[0:8], lsn)
	payload[8] = op
	rec.Marshal(payload[9:])
	binary.LittleEndian.PutUint32(l.buf[start:], payloadSize)
	binary.LittleEndian.PutUint32(l.buf[start+4:], crc32.Checksum(payload, crcTable))
	l.lastLSN = lsn
	l.appends++
	if err := l.sim.AtCrashPoint(iosim.CrashPostWALAppend); err != nil {
		// Power cut after the append: the frame sits in the volatile buffer
		// and will never reach disk. The caller must not ack.
		l.dead = err
		l.cond.Broadcast()
		return lsn, err
	}
	return lsn, nil
}

// AppendInsert logs an insert of rec and returns its LSN. The operation is
// volatile until a Commit covering the LSN returns.
func (l *Log) AppendInsert(rec record.Record) (uint64, error) {
	return l.appendFrame(opInsert, &rec)
}

// AppendDelete logs a delete of rec (the tombstone keeps the record's
// coordinates) and returns its LSN. The operation is volatile until a
// Commit covering the LSN returns.
func (l *Log) AppendDelete(rec record.Record) (uint64, error) {
	return l.appendFrame(opDelete, &rec)
}

// Commit blocks until every operation with LSN <= upTo is durable, joining
// the in-progress commit cohort when one exists. One caller per cohort
// becomes the leader and issues the single fsync that acks everyone parked
// on it. The group-commit window is a real-time ("wall clock") wait: it
// exists to let concurrent writers racing on the host join the cohort, so
// simulated time cannot express it; the barrier itself is still charged to
// the simulated clock.
func (l *Log) Commit(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.durableLSN >= upTo {
			return nil
		}
		if l.dead != nil {
			return l.dead
		}
		if l.f == nil {
			return fmt.Errorf("wal: log is closed")
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		if l.opts.GroupWindow > 0 {
			l.mu.Unlock()
			time.Sleep(l.opts.GroupWindow)
			l.mu.Lock()
		}
		err := l.flushLocked()
		l.syncing = false
		l.cond.Broadcast()
		if err != nil {
			return err
		}
	}
}

// flushLocked writes the commit buffer to the current segment and issues
// the durability barrier, advancing durableLSN to cover every buffered
// frame. The write is deliberately split in two so the mid-page-write crash
// point can leave a torn tail on disk. Callers hold mu.
func (l *Log) flushLocked() error {
	target := l.lastLSN
	if len(l.buf) == 0 {
		l.durableLSN = target
		return nil
	}
	l.chargePages(int64(len(l.buf)))
	half := len(l.buf) / 2
	if _, err := l.f.Write(l.buf[:half]); err != nil {
		l.dead = fmt.Errorf("wal: write segment: %w", err)
		return l.dead
	}
	if err := l.sim.AtCrashPoint(iosim.CrashMidPageWrite); err != nil {
		// Power cut mid-write: the first half (likely a torn frame) is on
		// disk, the rest of the buffer is lost.
		l.dead = err
		return l.dead
	}
	if _, err := l.f.Write(l.buf[half:]); err != nil {
		l.dead = fmt.Errorf("wal: write segment: %w", err)
		return l.dead
	}
	if err := l.barrier(); err != nil {
		l.dead = err
		return l.dead
	}
	l.size += int64(len(l.buf))
	l.bytes += int64(len(l.buf))
	l.buf = l.buf[:0]
	l.durableLSN = target
	l.segMaxLSN = target
	if l.size >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// barrier issues the fsync on the current segment, charging the simulated
// clock first (a crashed sim fails the barrier before any real I/O).
func (l *Log) barrier() error {
	if err := l.sim.Sync(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync segment: %w", err)
	}
	l.fsyncs++
	return nil
}

// chargePages charges the Sim's shared clock for appending n bytes.
func (l *Log) chargePages(n int64) {
	ps := int64(l.sim.Model().PageSize)
	first := l.size / ps
	last := (l.size + n - 1) / ps
	for p := first; p <= last; p++ {
		l.sim.Clock().WritePage(l.fid, p)
	}
}

// rotateLocked finalizes the current (fully synced) segment and starts the
// next one. Callers hold mu; the buffer is empty.
func (l *Log) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.sealed = append(l.sealed, segInfo{path: pagefile.GenPath(l.family, l.seg), maxLSN: l.segMaxLSN})
	l.seg++
	f, err := pagefile.OpenAppend(pagefile.GenPath(l.family, l.seg))
	if err != nil {
		l.dead = fmt.Errorf("wal: rotate segment: %w", err)
		return l.dead
	}
	l.f = f
	l.size = 0
	l.segMaxLSN = 0
	return nil
}

// TruncateThrough removes log segments made redundant by a durable flush:
// every finalized segment whose frames all have LSN <= applied is deleted,
// and a non-empty current segment that is fully applied is rotated away and
// deleted too, so the log stays bounded by the flush cadence.
func (l *Log) TruncateThrough(applied uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		return l.dead
	}
	if l.f != nil && l.size > 0 && len(l.buf) == 0 && l.segMaxLSN <= applied && l.durableLSN >= l.segMaxLSN {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.maxLSN <= applied {
			if err := pagefile.Remove(s.path); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	return nil
}

// SetFloor raises the log's LSN sequence above floor. The write path calls
// it with the store's durable AppliedLSN watermark when attaching the log:
// a truncated-empty log would otherwise restart at LSN 1, and frames below
// the watermark are skipped by replay — acked writes silently lost. LSNs
// at or below the floor are by definition durable and applied, so lastLSN
// and durableLSN advance with it.
func (l *Log) SetFloor(floor uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if floor >= l.nextLSN {
		l.nextLSN = floor + 1
		l.lastLSN = floor
		l.durableLSN = floor
	}
}

// LastLSN returns the highest LSN appended so far (0 if none).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := int64(len(l.sealed))
	if l.f != nil {
		segs++
	}
	return Stats{
		Bytes:    l.bytes,
		Fsyncs:   l.fsyncs,
		Appends:  l.appends,
		Replayed: l.replayed,
		Segments: segs,
	}
}

// Close flushes and syncs any buffered frames and closes the segment file.
// After a power cut it closes the descriptor without flushing — buffered
// frames are the simulated loss window and must not reach disk.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.dead == nil {
		err = l.flushLocked()
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	l.f = nil
	l.cond.Broadcast()
	return err
}
