package lsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sync"

	"sampleview/internal/iosim"
	"sampleview/internal/memview"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

// Store manages the ladder of delta levels beside one base view, newest
// first (index 0 is the most recently flushed level). Levels themselves are
// immutable; the store's lock only guards the slice that orders them, so
// queries snapshot the level list and then read without contention while
// flushes and compactions swap the list underneath. A level's file is
// reference-counted: the ladder holds one reference while the level is
// listed and every snapshot one more, so a superseded level closes when its
// last reader lets go.
type Store struct {
	sim    *iosim.Sim
	prefix string // delta files live at prefix+".dNNNNNN"; "" = in-memory

	mu      sync.Mutex
	levels  []*level // guarded by mu; newest first
	nextGen uint64   // guarded by mu
	applied uint64   // guarded by mu; highest WAL LSN folded into a durable level
	flushes int64    // guarded by mu
	merges  int64    // guarded by mu
}

// storeManifest is the persisted level directory for OS-backed stores. CRC
// is the Castagnoli checksum of the manifest encoded with CRC zeroed, so a
// half-written or bit-rotted manifest is detected instead of silently
// truncating the ladder. AppliedLSN is the durability watermark: every WAL
// frame with LSN at or below it is folded into the levels listed here, so
// replay skips them (idempotent recovery).
type storeManifest struct {
	Gens       []uint64 `json:"gens"` // newest first
	NextGen    uint64   `json:"next_gen"`
	AppliedLSN uint64   `json:"applied_lsn"`
	CRC        uint32   `json:"crc"`
}

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// checksum returns the manifest's CRC-32C over its canonical encoding with
// the CRC field zeroed.
func (m storeManifest) checksum() uint32 {
	m.CRC = 0
	data, err := json.Marshal(m)
	if err != nil {
		return 0
	}
	return crc32.Checksum(data, manifestCRC)
}

// CreateStore returns an empty delta store. For OS-backed stores (non-empty
// prefix) any stale manifest and delta files from a previous view at the
// same path are removed first, so a freshly created base view never glues
// itself to another view's deltas.
func CreateStore(sim *iosim.Sim, prefix string) (*Store, error) {
	s := &Store{sim: sim, prefix: prefix}
	if prefix != "" {
		// The listed levels and any a crash mid-flush or mid-compaction of
		// the previous view orphaned go alike.
		pagefile.Remove(manifestPath(prefix))
		pagefile.Remove(manifestPath(prefix) + ".tmp")
		s.removeOrphanDeltas(nil)
	}
	return s, nil
}

// OpenStore opens the delta store persisted beside an OS-backed view,
// reopening every level listed in the manifest. A missing manifest means no
// deltas were ever flushed; the store starts empty.
func OpenStore(sim *iosim.Sim, prefix string) (*Store, error) {
	s := &Store{sim: sim, prefix: prefix}
	if prefix == "" {
		return s, nil
	}
	m, err := readStoreManifest(prefix)
	if errors.Is(err, fs.ErrNotExist) {
		// No manifest was ever installed; any delta files are orphans from
		// a crash before the first flush completed.
		m, err = &storeManifest{}, nil
	}
	if err != nil {
		return nil, err
	}
	levels := make([]*level, 0, len(m.Gens))
	nextGen := m.NextGen
	live := make(map[uint64]bool, len(m.Gens))
	for _, gen := range m.Gens {
		lvl, err := openDelta(sim, s.pathFor(gen))
		if err != nil {
			release(levels)
			return nil, err
		}
		levels = append(levels, lvl)
		live[gen] = true
		if gen >= nextGen {
			nextGen = gen + 1
		}
	}
	s.mu.Lock()
	s.levels = levels
	s.nextGen = nextGen
	s.applied = m.AppliedLSN
	s.mu.Unlock()
	// Garbage-collect deltas the manifest does not reference: a crash after
	// a level was written but before the manifest rename leaves the file
	// behind with no reader; recovery reclaims the space.
	s.removeOrphanDeltas(live)
	return s, nil
}

// removeOrphanDeltas deletes the delta files beside the store that the
// manifest does not reference. live is the set of referenced generations;
// nil means nothing is referenced. Only OS-backed stores call it.
func (s *Store) removeOrphanDeltas(live map[uint64]bool) {
	gens, _ := pagefile.Generations(s.prefix + ".d")
	for _, gen := range gens {
		if !live[gen] {
			pagefile.Remove(s.pathFor(gen))
		}
	}
}

func manifestPath(prefix string) string { return prefix + ".lsm" }

// readStoreManifest loads the manifest beside prefix; a missing one is an
// error matching fs.ErrNotExist.
func readStoreManifest(prefix string) (*storeManifest, error) {
	var m storeManifest
	if err := pagefile.LoadJSON(manifestPath(prefix), &m); err != nil {
		return nil, fmt.Errorf("lsm: reading manifest: %w", err)
	}
	if m.CRC != 0 && m.CRC != m.checksum() {
		return nil, fmt.Errorf("lsm: manifest %s failed its checksum (half-written or corrupt)", manifestPath(prefix))
	}
	return &m, nil
}

// saveManifestLocked persists the level directory atomically: the CRC'd
// manifest is written to a temp file, fsynced, renamed over the live name,
// and the directory entry is fsynced, so a crash at any instant leaves
// either the old manifest or the new one — never a truncated hybrid. The
// pre-rename crash point models the worst window: the new level file exists
// but nothing references it, which open-time orphan GC reclaims.
func (s *Store) saveManifestLocked() error {
	if s.prefix == "" {
		return nil
	}
	m := storeManifest{NextGen: s.nextGen, AppliedLSN: s.applied}
	for _, l := range s.levels {
		m.Gens = append(m.Gens, l.gen)
	}
	m.CRC = m.checksum()
	err := pagefile.SaveJSON(manifestPath(s.prefix), m, func() error {
		if err := s.sim.AtCrashPoint(iosim.CrashPreManifestRename); err != nil {
			return err
		}
		return s.sim.Sync()
	})
	if err != nil {
		return fmt.Errorf("lsm: installing manifest: %w", err)
	}
	return nil
}

// writeLevel writes snap out as a new delta file without making it
// visible; install publishes it. The split lets View.Flush clear its
// mid-flush snapshot in the same critical section that installs the level,
// so no query window sees the records twice or not at all.
func (s *Store) writeLevel(snap memview.Snapshot) (*level, error) {
	s.mu.Lock()
	gen := s.nextGen
	s.nextGen++
	s.mu.Unlock()
	lvl, err := writeDelta(s.sim, s.pathFor(gen), gen, snap.Inserts, snap.Tombs)
	if err != nil {
		return nil, err
	}
	// The manifest will reference this file; make it durable first so the
	// reference is never harder than the referent. In-memory levels have
	// nothing to lose in a crash and skip the barrier.
	if lvl.path != "" {
		if err := lvl.file.Sync(); err != nil {
			lvl.file.Close()
			return nil, err
		}
	}
	return lvl, nil
}

// install prepends a written level to the ladder as the new level 0 and
// advances the durable WAL watermark to appliedLSN: every log frame at or
// below it is now folded into a synced level, so recovery must not replay
// them and the log may truncate them away.
func (s *Store) install(lvl *level, appliedLSN uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.levels = append([]*level{lvl}, s.levels...)
	s.flushes++
	if appliedLSN > s.applied {
		s.applied = appliedLSN
	}
	return s.saveManifestLocked()
}

// AppliedLSN returns the durable WAL watermark: the highest log sequence
// number folded into an installed level.
func (s *Store) AppliedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

func (s *Store) pathFor(gen uint64) string {
	if s.prefix == "" {
		return ""
	}
	return pagefile.GenPath(s.prefix+".d", gen)
}

// pickMergeLocked returns the index of the newer level of the adjacent pair
// the size-tiered policy merges next, or -1 when the ladder is in shape. A
// pair is due when the newer level has grown to the size of the older one
// (keeping level sizes geometric); force relaxes that to "any adjacent
// pair", used when the ladder is longer than the policy allows.
func (s *Store) pickMergeLocked(force bool) int {
	for i := 0; i+1 < len(s.levels); i++ {
		if s.levels[i].size() >= s.levels[i+1].size() {
			return i
		}
	}
	if force && len(s.levels) >= 2 {
		// Merge the adjacent pair with the smallest combined size, so a
		// forced merge does the least work that shortens the ladder.
		best, bestSize := 0, int64(1<<62)
		for i := 0; i+1 < len(s.levels); i++ {
			if sz := s.levels[i].size() + s.levels[i+1].size(); sz < bestSize {
				best, bestSize = i, sz
			}
		}
		return best
	}
	return -1
}

// CompactOnce runs one round of size-tiered compaction: if a level pair is
// due (or force is set and two levels exist), the pair is merged into a
// single new level and the ladder shortens by one. The heavy I/O runs
// without the store lock on references the merge holds to its inputs —
// levels are immutable — and the list swap at the end is atomic. It reports
// whether a merge ran.
func (s *Store) CompactOnce(force bool) (bool, error) {
	s.mu.Lock()
	i := s.pickMergeLocked(force)
	if i < 0 {
		s.mu.Unlock()
		return false, nil
	}
	inputs := []*level{s.levels[i], s.levels[i+1]}
	newer, older := inputs[0], inputs[1]
	retain(inputs)
	defer release(inputs)
	gen := s.nextGen
	s.nextGen++
	s.mu.Unlock()

	merged, err := s.mergeLevels(gen, newer, older)
	if err != nil {
		return false, err
	}
	if merged.path != "" {
		if err := merged.file.Sync(); err != nil {
			merged.file.Close()
			return false, err
		}
	}
	if err := s.sim.AtCrashPoint(iosim.CrashMidCompaction); err != nil {
		// Power cut between writing the merged level and installing it: the
		// output file stays on disk as an orphan (open-time GC reclaims it)
		// and the input levels remain authoritative.
		merged.file.Close()
		return false, err
	}

	s.mu.Lock()
	idx := -1
	for j := 0; j+1 < len(s.levels); j++ {
		if s.levels[j] == newer && s.levels[j+1] == older {
			idx = j
			break
		}
	}
	if idx < 0 {
		// The pair vanished while we merged (concurrent maintenance); drop
		// the merged output rather than corrupt the ladder.
		s.mu.Unlock()
		merged.file.Close()
		if merged.path != "" {
			pagefile.Remove(merged.path)
		}
		return false, fmt.Errorf("lsm: level set changed during compaction")
	}
	s.levels[idx] = merged
	s.levels = append(s.levels[:idx+1], s.levels[idx+2:]...)
	s.merges++
	err = s.saveManifestLocked()
	s.mu.Unlock()
	// The ladder's references go: an input no stream holds closes with the
	// merge's own, one a stream still reads closes with that stream.
	release(inputs)
	if err != nil {
		// The durable manifest still references the input levels (a crash
		// before the rename leaves the old manifest authoritative), so their
		// files must survive for recovery — closing unlinks nothing; the
		// merged output is the orphan and open-time GC reclaims it after
		// restart.
		return true, err
	}

	// The directory entries go once the manifest no longer names them; on
	// unix the data lives until the last reader closes.
	for _, l := range inputs {
		if l.path != "" {
			pagefile.Remove(l.path)
		}
	}
	return true, nil
}

// mergeLevels builds the union level of an adjacent (newer, older) pair:
// the newer level's tombstones cancel the older level's inserts, a
// cancelled tombstone is dropped (its target's Seq was unique, so it cannot
// also name a base record), and everything else survives. All reads and
// writes charge the shared simulated disk.
func (s *Store) mergeLevels(gen uint64, newer, older *level) (*level, error) {
	newTombs, err := readAll(newer.tombs, nil)
	if err != nil {
		return nil, fmt.Errorf("lsm: compaction reading tombstones: %w", err)
	}
	tombBySeq := make(map[uint64]int, len(newTombs))
	for i := range newTombs {
		tombBySeq[newTombs[i].Seq] = i
	}

	inserts, err := readAll(newer.inserts, nil)
	if err != nil {
		return nil, fmt.Errorf("lsm: compaction reading inserts: %w", err)
	}
	oldIns, err := readAll(older.inserts, nil)
	if err != nil {
		return nil, fmt.Errorf("lsm: compaction reading inserts: %w", err)
	}
	consumed := make(map[uint64]bool)
	for i := range oldIns {
		if _, dead := tombBySeq[oldIns[i].Seq]; dead {
			consumed[oldIns[i].Seq] = true
			continue
		}
		inserts = append(inserts, oldIns[i])
	}

	tombs := make([]record.Record, 0, len(newTombs))
	for i := range newTombs {
		if !consumed[newTombs[i].Seq] {
			tombs = append(tombs, newTombs[i])
		}
	}
	tombs, err = readAll(older.tombs, tombs)
	if err != nil {
		return nil, fmt.Errorf("lsm: compaction reading tombstones: %w", err)
	}
	return writeDelta(s.sim, s.pathFor(gen), gen, inserts, tombs)
}

// snapshotLevels returns the current level list, newest first, holding a
// reference to each level for the caller, who drops them with release. The
// slice is a copy; the levels it points at are immutable.
func (s *Store) snapshotLevels() []*level {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*level, len(s.levels))
	copy(out, s.levels)
	retain(out)
	return out
}

// retain takes a reference to each level's file; release drops it, closing
// a file whose last reference it was.
func retain(levels []*level) {
	for _, l := range levels {
		l.file.Retain()
	}
}

func release(levels []*level) {
	for _, l := range levels {
		l.file.Close()
	}
}

// Verify reads every level whole and checks it against the invariants its
// readers rely on (see level.verify), newest level first; the first
// violation is returned.
func (s *Store) Verify() error {
	levels := s.snapshotLevels()
	defer release(levels)
	for _, l := range levels {
		if err := l.verify(); err != nil {
			return fmt.Errorf("lsm: delta level gen %d: %w", l.gen, err)
		}
	}
	return nil
}

// Levels returns the current ladder depth.
func (s *Store) Levels() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.levels)
}

// stats returns the ladder's share of the write path's gauges: its depth,
// the live inserts and pending tombstones it holds, and the flushes and
// merges it has absorbed.
func (s *Store) stats() WriteStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := WriteStats{DeltaLevels: int64(len(s.levels)), Flushes: s.flushes, Compactions: s.merges}
	for _, l := range s.levels {
		w.DeltaRecords += l.nIns
		w.TombstonesPending += l.nTombs
	}
	return w
}

// Close drops the ladder's reference to every level: a level no stream
// holds closes now, one a stream still reads closes with that stream.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, l := range s.levels {
		if err := l.file.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.levels = nil
	return first
}
