package lsm

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
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
// flushes and compactions swap the list underneath.
type Store struct {
	sim    *iosim.Sim
	prefix string // delta files live at prefix+".dNNNNNN"; "" = in-memory

	mu      sync.Mutex
	levels  []*level // guarded by mu; newest first
	retired []*level // guarded by mu; superseded levels kept open for live streams
	nextGen uint64   // guarded by mu
	applied uint64   // guarded by mu; highest WAL LSN folded into a durable level
	flushes int64    // guarded by mu
	merges  int64    // guarded by mu
	orphans int64    // guarded by mu; stale delta files removed on open
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
		if m, err := readStoreManifest(prefix); err == nil {
			for _, gen := range m.Gens {
				os.Remove(deltaPath(prefix, gen))
			}
		}
		os.Remove(manifestPath(prefix))
		// Deltas orphaned by a crash mid-flush or mid-compaction of the
		// previous view at this path go too.
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
	if os.IsNotExist(err) {
		// No manifest was ever installed; any delta files are orphans from
		// a crash before the first flush completed.
		s.removeOrphanDeltas(nil)
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	levels := make([]*level, 0, len(m.Gens))
	nextGen := m.NextGen
	live := make(map[uint64]bool, len(m.Gens))
	for _, gen := range m.Gens {
		lvl, err := openDelta(sim, deltaPath(prefix, gen))
		if err != nil {
			for _, l := range levels {
				l.file.Close()
			}
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

// removeOrphanDeltas deletes delta files (and a stale manifest temp file)
// beside the store that the manifest does not reference. live is the set of
// referenced generations; nil means nothing is referenced.
func (s *Store) removeOrphanDeltas(live map[uint64]bool) {
	if s.prefix == "" {
		return
	}
	os.Remove(manifestPath(s.prefix) + ".tmp")
	dir := filepath.Dir(s.prefix)
	base := filepath.Base(s.prefix) + ".d"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var removed int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, base) {
			continue
		}
		var gen uint64
		if _, err := fmt.Sscanf(name[len(base):], "%d", &gen); err != nil {
			continue
		}
		if live[gen] {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	s.mu.Lock()
	s.orphans += removed
	s.mu.Unlock()
}

func deltaPath(prefix string, gen uint64) string {
	return fmt.Sprintf("%s.d%06d", prefix, gen)
}

func manifestPath(prefix string) string { return prefix + ".lsm" }

func readStoreManifest(prefix string) (*storeManifest, error) {
	data, err := os.ReadFile(manifestPath(prefix))
	if err != nil {
		return nil, err
	}
	var m storeManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("lsm: decoding manifest %s: %w", manifestPath(prefix), err)
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
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("lsm: encoding manifest: %w", err)
	}
	err = pagefile.WriteFileAtomic(manifestPath(s.prefix), append(data, '\n'), func() error {
		if s.sim == nil {
			return nil
		}
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
	if s.sim == nil {
		return nil, fmt.Errorf("lsm: store has no backing disk")
	}
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

// OrphansRemoved returns how many unreferenced delta files open-time GC
// reclaimed.
func (s *Store) OrphansRemoved() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.orphans
}

func (s *Store) pathFor(gen uint64) string {
	if s.prefix == "" {
		return ""
	}
	return deltaPath(s.prefix, gen)
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
// without the store lock — levels are immutable and open streams keep
// reading the superseded files — and the list swap at the end is atomic.
// It reports whether a merge ran.
func (s *Store) CompactOnce(force bool) (bool, error) {
	s.mu.Lock()
	i := s.pickMergeLocked(force)
	if i < 0 {
		s.mu.Unlock()
		return false, nil
	}
	newer, older := s.levels[i], s.levels[i+1]
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
	if s.sim != nil {
		if err := s.sim.AtCrashPoint(iosim.CrashMidCompaction); err != nil {
			// Power cut between writing the merged level and installing it:
			// the output file stays on disk as an orphan (open-time GC
			// reclaims it) and the input levels remain authoritative.
			merged.file.Close()
			return false, err
		}
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
			os.Remove(merged.path)
		}
		return false, fmt.Errorf("lsm: level set changed during compaction")
	}
	s.levels[idx] = merged
	s.levels = append(s.levels[:idx+1], s.levels[idx+2:]...)
	s.retired = append(s.retired, newer, older)
	s.merges++
	err = s.saveManifestLocked()
	s.mu.Unlock()
	if err != nil {
		// The durable manifest still references the input levels (a crash
		// before the rename leaves the old manifest authoritative), so their
		// files must survive for recovery; the merged output is the orphan
		// and open-time GC reclaims it after restart.
		return true, err
	}

	// Superseded files stay open until Close (streams opened before the
	// merge keep reading them), but their directory entries go now; on
	// unix the data lives until the last reader closes.
	for _, l := range []*level{newer, older} {
		if l.path != "" {
			os.Remove(l.path)
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

// snapshotLevels returns the current level list, newest first. The slice is
// a copy; the levels it points at are immutable.
func (s *Store) snapshotLevels() []*level {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*level, len(s.levels))
	copy(out, s.levels)
	return out
}

// Verify reads every level whole and checks it against the invariants its
// readers rely on (see level.verify), newest level first; the first
// violation is returned.
func (s *Store) Verify() error {
	for _, l := range s.snapshotLevels() {
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

// DeltaRecords returns the total live inserts across all levels.
func (s *Store) DeltaRecords() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, l := range s.levels {
		n += l.nIns
	}
	return n
}

// Tombstones returns the total tombstones pending across all levels.
func (s *Store) Tombstones() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, l := range s.levels {
		n += l.nTombs
	}
	return n
}

// Flushes returns how many memview flushes the store has absorbed.
func (s *Store) Flushes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes
}

// Merges returns how many compaction merges have run.
func (s *Store) Merges() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.merges
}

// Close closes every level file, including superseded ones retained for
// older streams.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, l := range append(s.levels, s.retired...) {
		if l.file != nil {
			if err := l.file.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.levels, s.retired = nil, nil
	return first
}

// Destroy closes the store and removes its delta files and manifest: the
// cleanup after a fold rebuilt the base over everything the store held.
func (s *Store) Destroy() error {
	s.mu.Lock()
	paths := make([]string, 0, len(s.levels))
	for _, l := range s.levels {
		if l.path != "" {
			paths = append(paths, l.path)
		}
	}
	s.mu.Unlock()
	err := s.Close()
	for _, p := range paths {
		os.Remove(p)
	}
	if s.prefix != "" {
		os.Remove(manifestPath(s.prefix))
	}
	return err
}
