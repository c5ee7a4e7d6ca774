package lsm

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sync"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/memview"
	"sampleview/internal/pagefile"
	"sampleview/internal/par"
	"sampleview/internal/record"
	"sampleview/internal/wal"
)

// View is a base ACE tree plus the live write path: an in-memory memview
// buffer absorbing inserts and deletes, and a Store of flushed delta
// levels. Queries merge all components into one uniform
// without-replacement stream; Flush seals the memview into level 0;
// CompactOnce merges levels; Fold rebuilds the base over everything. A
// View is safe for concurrent use: ingest, queries and maintenance may
// race freely (Flush itself is one-at-a-time).
type View struct {
	main *core.Tree
	mu   sync.Mutex
	mem  *memview.Buffer // guarded by mu; the live ingest buffer, swapped whole by Flush
	// flushing holds the sealed snapshot while its level-0 write is in
	// flight, so queries opened mid-flush still see those records exactly
	// once (the snapshot is cleared in the same critical section that
	// installs the level).
	flushing *memview.Snapshot // guarded by mu
	store    *Store
	// log, when attached, is the write-ahead log every mutation reaches
	// before the memview. Appends and the Flush seal are serialized under mu
	// so the LSN boundary captured at seal time covers exactly the sealed
	// snapshot; the View uses the log but does not own its lifecycle.
	log         *wal.Log // guarded by mu (pointer install); the Log itself is concurrency-safe
	walReplayed int64    // guarded by mu
	// idle holds the in-memory match lists closed streams handed back (see
	// keepIdle).
	idle chan []record.Record
}

// NewView wraps a base tree and its delta store in a writable view.
func NewView(main *core.Tree, store *Store) *View {
	return &View{main: main, mem: memview.New(), store: store, idle: make(chan []record.Record, keepIdle)}
}

// Main returns the base ACE tree.
func (v *View) Main() *core.Tree { return v.main }

// Store returns the delta store (for maintenance policy decisions).
func (v *View) Store() *Store { return v.store }

// buffer returns the live ingest buffer.
func (v *View) buffer() *memview.Buffer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.mem
}

// Insert adds a record to the view through the memview buffer. A
// concurrent Flush may seal the buffer between the lookup and the write;
// the retry lands in the fresh buffer the flush installed. With a WAL
// attached the insert is logged first (and the log append + buffer write
// are atomic with respect to the flush seal); it is volatile until Commit.
func (v *View) Insert(rec record.Record) error { return v.write(rec, false) }

// Delete removes the record with rec's Seq from the view: an in-buffer
// target annihilates immediately, anything older becomes a tombstone that
// is honored by queries at once and physically applied by merges and folds.
// With a WAL attached the delete is logged first and is volatile until
// Commit.
func (v *View) Delete(rec record.Record) error { return v.write(rec, true) }

// write is Insert (del false) and Delete (del true).
func (v *View) write(rec record.Record, del bool) error {
	v.mu.Lock()
	if v.log != nil {
		logOp := v.log.AppendInsert
		if del {
			logOp = v.log.AppendDelete
		}
		_, err := logOp(rec)
		if err == nil {
			err = apply(v.mem, rec, del)
		}
		v.mu.Unlock()
		return err
	}
	v.mu.Unlock()
	for {
		if err := apply(v.buffer(), rec, del); err != memview.ErrSealed {
			return err
		}
	}
}

// apply writes rec into the memview buffer m as an insert or a delete.
func apply(m *memview.Buffer, rec record.Record, del bool) error {
	if del {
		return m.Delete(rec)
	}
	return m.Insert(rec)
}

// AttachWAL wires the write-ahead log into the view and replays the given
// recovered operations into the memview, skipping every operation already
// folded into a durable level (LSN at or below the store's AppliedLSN
// watermark) so replay is idempotent. It returns the number of operations
// applied. Callers attach before serving any traffic; the View uses the log
// but its lifecycle (Close) stays with the caller.
func (v *View) AttachWAL(l *wal.Log, ops []wal.Op) (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	applied := v.store.AppliedLSN()
	// Keep fresh LSNs above the durable watermark: a fully-truncated log
	// restarts at 1, and frames at or below AppliedLSN are skipped by the
	// replay filter below.
	l.SetFloor(applied)
	n := 0
	for _, op := range ops {
		if op.LSN <= applied {
			continue
		}
		if err := apply(v.mem, op.Rec, op.Delete); err != nil {
			return n, fmt.Errorf("lsm: wal replay at lsn %d: %w", op.LSN, err)
		}
		n++
	}
	v.log = l
	v.walReplayed = int64(n)
	return n, nil
}

// Commit blocks until every write logged so far is durable (one group
// commit covers every writer parked on the same cohort). Without a WAL it
// is a no-op: the caller's ack carries only flush-boundary durability.
func (v *View) Commit() error {
	v.mu.Lock()
	l := v.log
	v.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Commit(l.LastLSN())
}

// Flush seals the current memview and writes it out as a new level-0 delta
// file. Ingest is blocked only for the buffer swap; the sealed snapshot
// stays visible to queries throughout the write and is retired atomically
// with the level's installation. Concurrent flushes coalesce: the loser
// returns without writing.
func (v *View) Flush() error {
	v.mu.Lock()
	if v.flushing != nil {
		v.mu.Unlock()
		return nil // a flush is already carrying the sealed records out
	}
	snap := v.mem.Seal()
	v.mem = memview.New()
	if snap.Empty() {
		v.mu.Unlock()
		return nil
	}
	// The LSN boundary of the sealed snapshot: appends hold mu, so every
	// logged operation at or below it is in the snapshot (or an older
	// level) and everything after it is in the fresh buffer.
	var boundary uint64
	if v.log != nil {
		boundary = v.log.LastLSN()
	}
	v.flushing = &snap
	v.mu.Unlock()

	lvl, err := v.store.writeLevel(snap)

	v.mu.Lock()
	if err == nil {
		err = v.store.install(lvl, boundary)
	}
	if err != nil {
		// The level never became visible; replay the sealed snapshot into
		// the live buffer so nothing is lost. (Tombstones replay as deletes:
		// their targets are older than this buffer, so they stay tombstones.)
		for i := range snap.Inserts {
			v.mem.Insert(snap.Inserts[i])
		}
		for i := range snap.Tombs {
			v.mem.Delete(snap.Tombs[i])
		}
	}
	log := v.log
	v.flushing = nil
	v.mu.Unlock()
	if err == nil && log != nil {
		// The level is durable and the manifest references it: log frames
		// at or below the boundary are redundant. Make the tail of the log
		// durable first (truncation must never outrun a sync), then drop
		// the covered segments.
		if err := log.Commit(boundary); err != nil {
			return err
		}
		return log.TruncateThrough(boundary)
	}
	return err
}

// CompactOnce runs one size-tiered compaction round (see Store.CompactOnce).
func (v *View) CompactOnce(force bool) (bool, error) { return v.store.CompactOnce(force) }

// DeltaSize returns the records awaiting a fold into the base: live
// in-memory inserts plus the inserts of every delta level.
func (v *View) DeltaSize() int {
	w, _ := v.gauges()
	return int(w.MemViewRecords + w.DeltaRecords)
}

// Count returns the view's record count: base plus pending inserts minus
// pending tombstones (tombstones are assumed to name live records; deleting
// a record twice skews the count until the fold recomputes it exactly).
func (v *View) Count() int64 {
	w, _ := v.gauges()
	return v.main.Count() + w.MemViewRecords + w.DeltaRecords - w.TombstonesPending
}

// Empty reports whether the write path holds nothing, so queries can take
// the base-only fast path.
func (v *View) Empty() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.mem.Len() == 0 && v.mem.Tombstones() == 0 && v.flushing == nil &&
		v.store.Levels() == 0
}

// WriteStats is a snapshot of the write path's gauges and counters.
type WriteStats struct {
	// MemViewRecords and MemViewTombstones are the in-memory ingest
	// contents (live buffer plus any snapshot mid-flush).
	MemViewRecords    int64
	MemViewTombstones int64
	// DeltaLevels and DeltaRecords describe the on-disk ladder.
	DeltaLevels  int64
	DeltaRecords int64
	// TombstonesPending counts deletes not yet folded away, in memory and
	// on disk.
	TombstonesPending int64
	// Flushes and Compactions count maintenance rounds run.
	Flushes     int64
	Compactions int64
	// WALBytes and WALFsyncs are the write-ahead log's flushed volume and
	// durability barriers; WALReplayed counts operations recovered into the
	// memview at open; WALSegments is the live segment count. All zero when
	// no WAL is attached.
	WALBytes    int64
	WALFsyncs   int64
	WALReplayed int64
	WALSegments int64
}

// Add accumulates o into w (for summing across shards).
func (w *WriteStats) Add(o WriteStats) {
	w.MemViewRecords += o.MemViewRecords
	w.MemViewTombstones += o.MemViewTombstones
	w.DeltaLevels += o.DeltaLevels
	w.DeltaRecords += o.DeltaRecords
	w.TombstonesPending += o.TombstonesPending
	w.Flushes += o.Flushes
	w.Compactions += o.Compactions
	w.WALBytes += o.WALBytes
	w.WALFsyncs += o.WALFsyncs
	w.WALReplayed += o.WALReplayed
	w.WALSegments += o.WALSegments
}

// WriteStats returns the view's current write-path gauges and counters.
func (v *View) WriteStats() WriteStats {
	w, log := v.gauges()
	if log != nil {
		ls := log.Stats()
		w.WALBytes, w.WALFsyncs, w.WALSegments = ls.Bytes, ls.Fsyncs, ls.Segments
	}
	return w
}

// gauges returns WriteStats but for the log's counters, which wait out a
// commit in flight, and the log to read them from. The memview and the
// ladder are read in one critical section, so a flush counts its records
// once.
func (v *View) gauges() (WriteStats, *wal.Log) {
	v.mu.Lock()
	defer v.mu.Unlock()
	w := v.store.stats()
	w.MemViewRecords, w.MemViewTombstones = int64(v.mem.Len()), int64(v.mem.Tombstones())
	if v.flushing != nil {
		w.MemViewRecords += int64(len(v.flushing.Inserts))
		w.MemViewTombstones += int64(len(v.flushing.Tombs))
	}
	w.TombstonesPending += w.MemViewTombstones
	w.WALReplayed = v.walReplayed
	return w, v.log
}

// tombChecker vets Seqs against every tombstone component visible to one
// stream: the in-memory snapshots (free), then each level newest first
// (bloom filter in memory; only positives touch the disk's tombstone
// region through the checker's clocked item-file views).
type tombChecker struct {
	mems   []memview.Snapshot
	levels []*level
	tombs  []*pagefile.ItemFile // clock-charged views, parallel to levels
	// lost records the first permanent storage loss hit anywhere in the
	// write path. Once set, disk probes stop (every unvetted Seq reads as
	// live) and the owning stream surfaces the loss once as a
	// WritePathLostError. In-memory checks keep working.
	lost     error
	reported bool
}

func newTombChecker(mems []memview.Snapshot, levels []*level, ck *iosim.Clock) *tombChecker {
	t := &tombChecker{mems: mems, levels: levels, tombs: make([]*pagefile.ItemFile, len(levels))}
	for i, l := range levels {
		t.tombs[i] = l.tombs.OnClock(ck)
	}
	return t
}

// deleted reports whether any visible component tombstones seq.
func (t *tombChecker) deleted(seq uint64) (bool, error) {
	return t.deletedBefore(seq, len(t.levels))
}

// deletedBefore checks the in-memory snapshots and only levels strictly
// newer than level n: the filter applied to level n's own inserts (a
// level's deletes never target its own or newer inserts — in-buffer pairs
// annihilate and a deleted Seq is never reinserted).
func (t *tombChecker) deletedBefore(seq uint64, n int) (bool, error) {
	for i := range t.mems {
		if t.mems[i].Deleted(seq) {
			return true, nil
		}
	}
	if t.lost != nil {
		return false, nil
	}
	for i := 0; i < n && i < len(t.levels); i++ {
		dead, err := t.levels[i].lookupTomb(t.tombs[i], seq)
		if err != nil {
			if hardLoss(err) {
				t.noteLost(err)
				return false, nil
			}
			return false, err
		}
		if dead {
			return true, nil
		}
	}
	return false, nil
}

// noteLost records a permanent write-path loss (keeping the first one).
func (t *tombChecker) noteLost(err error) {
	if t.lost == nil {
		t.lost = err
	}
}

// takeLost returns the recorded loss (a dead or corrupt delta page, in a
// run load or a tombstone probe), as a WritePathLostError, the first time it
// is called after the loss struck: the owning stream's merge polls it before
// every pick, so the stream surfaces the loss exactly once and then keeps
// serving whatever survived. The lost state itself is permanent: probes stay
// disabled rather than re-reading pages known to be gone.
func (t *tombChecker) takeLost() error {
	if t.lost == nil || t.reported {
		return nil
	}
	t.reported = true
	return &WritePathLostError{Err: t.lost}
}

// levelSource is one delta level's share of a stream: the candidate set the
// rank fences leave for the predicate, read one run at a time. ready holds
// the loaded run's candidates not yet drawn; runs before next are spent.
type levelSource struct {
	l     *level
	itf   *pagefile.ItemFile // the insert region on the stream's clock
	cand  candRange
	next  int
	ready []record.Record
}

// streamParts is everything gather assembles for one query: the exact
// in-memory draw population, each level's candidate set (its size exact,
// nothing of it read yet), the estimated live base population (negative
// when more tombstones are expected in q than the base holds matches: the
// excess targets level inserts), and the tombstone checker for base and
// level draws.
type streamParts struct {
	mem     []record.Record
	memIdle chan []record.Record // where mem goes back at Close
	levels  []levelSource        // newest first
	baseEst float64
	checker *tombChecker
}

// runRetryBudget bounds the re-reads of one run through transient faults
// where there is no caller to hand the fault to. Each pass pushes the
// failing page at least one attempt further, so per-clock transient bursts
// (bounded by the fault plan) always clear well within it.
const runRetryBudget = 64

// components snapshots the in-memory state (the live buffer, then a sealed
// snapshot mid-flush) and the level ladder, whose levels the caller releases.
func (v *View) components() ([]memview.Snapshot, []*level) {
	v.mu.Lock()
	defer v.mu.Unlock()
	mems := []memview.Snapshot{v.mem.Snapshot()}
	if v.flushing != nil {
		mems = append(mems, *v.flushing)
	}
	return mems, v.store.snapshotLevels()
}

// gather assembles the stream components for q: it snapshots the in-memory
// state and level ladder, sizes each level's candidate set from its rank
// fences, and reduces the base population estimate by the tombstones
// expected in q — including those that will turn out to target level
// inserts, which the stream hands back to the base as it meets them. It
// reads nothing from the ladder; ck is the clock later level reads charge.
// The caller releases the levels the checker holds.
func (v *View) gather(main *core.Tree, ck *iosim.Clock, q record.Box) (*streamParts, error) {
	mems, levels := v.components()
	est, err := main.EstimateCount(q) // also validates the predicate's dims
	if err != nil {
		release(levels)
		return nil, err
	}

	parts := &streamParts{mem: par.Take(v.idle), memIdle: v.idle, checker: newTombChecker(mems, levels, ck), levels: make([]levelSource, len(levels))}
	for i := range mems {
		parts.mem = mems[i].MatchingInserts(parts.mem, q)
	}
	for i, l := range levels {
		parts.levels[i] = levelSource{l: l, itf: l.inserts.OnClock(ck), cand: l.candidates(q)}
	}

	// Matching in-memory tombstones are exact, each level's share is
	// interpolated from its bounds; the residual error is estimate drift,
	// which the merge loop already tolerates.
	tombEst := 0.0
	for i := range mems {
		for j := range mems[i].Tombs {
			if q.ContainsRecord(&mems[i].Tombs[j]) {
				tombEst++
			}
		}
	}
	for _, l := range levels {
		if l.nTombs > 0 {
			tombEst += float64(l.nTombs) * l.tombBounds.overlapFraction(q)
		}
	}
	parts.baseEst = est - tombEst
	return parts, nil
}

// EstimateCount estimates the number of live records matching q across the
// write path and the base (the in-memory and level parts are exact; the
// base part interpolates internal-node counts minus the tombstones expected
// to land in the base). It reads every run's window of every level, and
// probes the tombstones of every match, on the store's shared clock,
// re-driving transient faults itself.
func (v *View) EstimateCount(q record.Box) (float64, error) {
	parts, err := v.gather(v.main, v.store.sim.Clock(), q)
	if err != nil {
		return 0, err
	}
	defer release(parts.checker.levels)
	defer giveIdle(parts.memIdle, parts.mem)
	var live, consumed float64
	var page []byte
	var recs []record.Record
	for i := range parts.levels {
		ls := &parts.levels[i]
		if ls.cand.n > 0 && page == nil {
			page = make([]byte, ls.itf.File().PageSize())
		}
		for j := range ls.l.runEnd {
			recs, err = ls.l.readRunRetry(ls.itf, j, &ls.cand, page, recs[:0], runRetryBudget)
			if hardLoss(err) {
				break // the rest of the level is as lost to a stream
			}
			if err != nil {
				return 0, err
			}
			for k := range recs {
				if !q.ContainsRecord(&recs[k]) {
					continue
				}
				dead, err := parts.checker.deletedBefore(recs[k].Seq, i)
				for a := 1; pagefile.IsTransient(err) && a < runRetryBudget; a++ {
					dead, err = parts.checker.deletedBefore(recs[k].Seq, i)
				}
				if err != nil {
					return 0, err
				}
				if dead {
					consumed++ // a tombstone that did not land in the base
				} else {
					live++
				}
			}
		}
	}
	return max(parts.baseEst+consumed, 0) + float64(len(parts.mem)) + live, nil
}

// Query returns a merged online sample stream for q, charging base I/O to
// the base file's clock and delta I/O to the store's shared clock.
func (v *View) Query(q record.Box, rng *rand.Rand) (*Stream, error) {
	return v.queryOn(v.main, v.store.sim.Clock(), q, rng)
}

// QueryClocked is Query with all I/O — base tree page reads, level insert
// scans and tombstone probes — charged to the given per-stream clock, so
// concurrent merged streams proceed independently.
func (v *View) QueryClocked(c *iosim.Clock, q record.Box, rng *rand.Rand) (*Stream, error) {
	return v.queryOn(v.main.WithClock(c), c, q, rng)
}

// OpenStream opens the partition's leaf stream for q on clock ck: the one
// stream type both the unsharded and the sharded view serve from. Over an
// empty write path it is the base tree's stream alone, its stab batches
// shuffled by shuffle (nil = served in emission order); otherwise it is the
// QueryClocked merge driven by the rng merge returns. merge is called only
// in the second case, so a caller deriving seeds from a shared source draws
// exactly what the stream consumes.
func (v *View) OpenStream(ck *iosim.Clock, q record.Box, shuffle *rand.Rand, merge func() *rand.Rand) (*Stream, error) {
	if !v.Empty() {
		return v.QueryClocked(ck, q, merge())
	}
	main := v.main.WithClock(ck)
	base, err := main.Query(q)
	if err != nil {
		return nil, err
	}
	return baseStream(base, pin(main), shuffle), nil
}

// pin takes a reference to the base tree's file for a stream, which drops it
// at Close: a rebuild may close the view's file while the stream reads on.
func pin(main *core.Tree) *pagefile.File {
	f := main.File()
	f.Retain()
	return f
}

func (v *View) queryOn(main *core.Tree, ck *iosim.Clock, q record.Box, rng *rand.Rand) (*Stream, error) {
	if rng == nil {
		return nil, fmt.Errorf("lsm: query needs a random source")
	}
	parts, err := v.gather(main, ck, q)
	if err != nil {
		return nil, err
	}
	ms, err := main.Query(q)
	if err != nil {
		release(parts.checker.levels)
		return nil, err
	}
	return newStream(parts, ms, pin(main), q, rng)
}

// Fold rebuilds the base ACE tree over everything the view holds — base
// records minus tombstoned ones, plus every live delta-level insert, plus
// the in-memory buffers — writing the new tree to dst. Every input is read
// through its charged path: the base through a full-domain query on its
// own disk, the levels through their item files, the staging and build
// through dst's disk. The receiver is not modified; callers serialize Fold
// against ingest, then swap in a new View around the returned tree and
// Destroy the old store.
func (v *View) Fold(dst *pagefile.File, p core.Params) (*core.Tree, error) {
	mems, levels := v.components()
	defer release(levels)
	checker := newTombChecker(mems, levels, v.store.sim.Clock())

	staging, err := stage(dst.Sim(), func(write func(*record.Record) error) error {
		// Base records, skipping every tombstoned Seq. The full-domain query
		// returns each base record exactly once.
		stream, err := v.main.Query(record.FullBox(v.main.Dims()))
		if err != nil {
			return err
		}
		defer stream.Close()
		for {
			rec, err := stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			dead, err := checker.deleted(rec.Seq)
			if err != nil {
				return err
			}
			if dead {
				continue
			}
			if err := write(&rec); err != nil {
				return err
			}
		}

		// Level inserts, oldest level first, each filtered by newer tombstones.
		for i := len(levels) - 1; i >= 0; i-- {
			recs, err := readAll(levels[i].inserts, nil)
			if err != nil {
				return err
			}
			for j := range recs {
				dead, err := checker.deletedBefore(recs[j].Seq, i)
				if err != nil {
					return err
				}
				if dead {
					continue
				}
				if err := write(&recs[j]); err != nil {
					return err
				}
			}
		}

		// The in-memory buffers last; their own tombstones can only target
		// older components, already filtered above.
		for i := len(mems) - 1; i >= 0; i-- {
			for j := range mems[i].Inserts {
				if err := write(&mems[i].Inserts[j]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.Dims == 0 {
		p.Dims = v.main.Dims()
	}
	defer staging.File().Close()
	return core.Create(dst, staging, p)
}
