package sampleview

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestIngestClocksGolden pins what the write path does, flush by flush and
// merge by merge, against testdata/ingest_clocks.golden: a seeded burst of
// 300 batches of 128 inserts on a WAL-backed view over a 20,000-record base.
// Every third batch tombstones 64 of its own records, which annihilate in the
// memview, and 16 records of a batch an earlier flush wrote out, which meet
// their inserts only when compaction merges the two levels. Every 4,096
// inserts the burst flushes and then compacts until no merge is due, as
// svsuite's ingest writer does. Each line gives one flush or merge: the pages
// it read and wrote and its simulated time, the records it took in and wrote
// out and the tombstones annihilated on the way (for a flush, in the memview
// since the last flush), a digest of the level file it wrote, and the WAL
// bytes and fsyncs logged since the previous line. Everything is charged to
// the simulated disk and the burst is single-threaded, so a byte-identical
// golden means the write path read, wrote, kept and stored the same.
func TestIngestClocksGolden(t *testing.T) {
	const (
		baseRecords = 20_000
		batches     = 300
		batchInsert = 128
		ownDeletes  = 64
		oldDeletes  = 16
		flushEvery  = 4096
	)
	path := filepath.Join(t.TempDir(), "ingest.view")
	v, err := CreateFromSlice(path, genRecords(baseRecords, 91), Options{Seed: 92, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	fresh := genRecords(batches*batchInsert, 93)
	for i := range fresh {
		fresh[i].Seq += baseRecords
	}

	var out bytes.Buffer
	// The ladder as the lines report it, newest first: each level's file
	// generation and records. Merged levels take the place of their pair.
	type level struct {
		gen     uint64
		records int64
	}
	var levels []level
	last := v.WriteStats()
	deletes, flushedBatches, victim := int64(0), 0, 0
	// line runs one maintenance step and, if it ran, prints its line: op
	// returns the records the step took in and wrote out, the tombstones it
	// annihilated and the level file it wrote ("" when nothing ran).
	line := func(name string, op func() (in, outRecs, gone int64, file string)) bool {
		t.Helper()
		before, now := v.Stats().Counters, v.SimNow()
		in, outRecs, gone, file := op()
		if file == "" {
			return false
		}
		after, ws := v.Stats().Counters, v.WriteStats()
		fmt.Fprintf(&out, "%s: reads=%d writes=%d sim_ms=%.3f in=%d out=%d annihilated=%d file=%s wal_bytes=%d wal_fsyncs=%d\n",
			name, after.Reads()-before.Reads(), after.Writes()-before.Writes(), (v.SimNow()-now).Seconds()*1000,
			in, outRecs, gone, fileDigest(t, file), ws.WALBytes-last.WALBytes, ws.WALFsyncs-last.WALFsyncs)
		last = ws
		return true
	}
	ladder := func(ws WriteStats) int64 {
		return ws.DeltaRecords + ws.TombstonesPending - ws.MemViewTombstones
	}

	for b := 0; b < batches; b++ {
		recs := fresh[b*batchInsert : (b+1)*batchInsert]
		for i := range recs {
			if err := v.Insert(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if b%3 == 2 {
			for i := range ownDeletes {
				if err := v.Delete(recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			deletes += ownDeletes
			if victim < flushedBatches {
				old := fresh[victim*batchInsert : (victim+1)*batchInsert]
				for i := batchInsert - oldDeletes; i < batchInsert; i++ {
					if err := v.Delete(old[i]); err != nil {
						t.Fatal(err)
					}
				}
				deletes += oldDeletes
				victim++
			}
		}
		if err := v.Commit(); err != nil {
			t.Fatal(err)
		}
		if (b+1)*batchInsert%flushEvery != 0 && b+1 < batches {
			continue
		}
		flushedBatches = b + 1
		line(fmt.Sprintf("flush %d", v.WriteStats().Flushes+1), func() (int64, int64, int64, string) {
			ws := v.WriteStats()
			in := ws.MemViewRecords + ws.MemViewTombstones
			gone := deletes - ws.MemViewTombstones
			deletes = 0
			gens := deltaGens(t, path)
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			written := ladder(v.WriteStats()) - ladder(ws)
			added, removed := diffGens(gens, deltaGens(t, path))
			if len(added) != 1 || len(removed) != 0 || written != in {
				t.Fatalf("flush of %d records wrote %d in levels %v, removed %v", in, written, added, removed)
			}
			levels = append([]level{{added[0], written}}, levels...)
			return in, written, gone, deltaPath(path, added[0])
		})
		for merge := 1; ; merge++ {
			ran := line(fmt.Sprintf("compact %d.%d", v.WriteStats().Flushes, merge), func() (int64, int64, int64, string) {
				gens, ws := deltaGens(t, path), v.WriteStats()
				ran, err := v.CompactDeltas(false)
				if err != nil {
					t.Fatal(err)
				}
				if !ran {
					return 0, 0, 0, ""
				}
				added, removed := diffGens(gens, deltaGens(t, path))
				i := slices.IndexFunc(levels, func(l level) bool { return slices.Contains(removed, l.gen) })
				if len(added) != 1 || len(removed) != 2 || i < 0 || i+1 == len(levels) || !slices.Contains(removed, levels[i+1].gen) {
					t.Fatalf("a merge added levels %v and removed %v from %v", added, removed, levels)
				}
				in := levels[i].records + levels[i+1].records
				outRecs := in - (ladder(ws) - ladder(v.WriteStats()))
				levels = slices.Replace(levels, i, i+2, level{added[0], outRecs})
				return in, outRecs, (in - outRecs) / 2, deltaPath(path, added[0])
			})
			if !ran {
				break
			}
		}
	}
	ws := v.WriteStats()
	fmt.Fprintf(&out, "end: levels=%d delta_records=%d tombstones=%d flushes=%d merges=%d wal_bytes=%d wal_fsyncs=%d\n",
		ws.DeltaLevels, ws.DeltaRecords, ws.TombstonesPending, ws.Flushes, ws.Compactions, ws.WALBytes, ws.WALFsyncs)
	goldenCompare(t, "testdata/ingest_clocks.golden", out.Bytes())
}

// deltaGens lists the generations of the delta level files beside the view
// file at path, oldest first.
func deltaGens(t *testing.T, path string) []uint64 {
	t.Helper()
	names, err := filepath.Glob(path + ".d*")
	if err != nil {
		t.Fatal(err)
	}
	var gens []uint64
	for _, n := range names {
		var g uint64
		if _, err := fmt.Sscanf(strings.TrimPrefix(n, path+".d"), "%d", &g); err == nil {
			gens = append(gens, g)
		}
	}
	slices.Sort(gens)
	return gens
}

// diffGens returns the generations in after but not before, and those in
// before but not after.
func diffGens(before, after []uint64) (added, removed []uint64) {
	for _, g := range after {
		if !slices.Contains(before, g) {
			added = append(added, g)
		}
	}
	for _, g := range before {
		if !slices.Contains(after, g) {
			removed = append(removed, g)
		}
	}
	return added, removed
}

func deltaPath(path string, gen uint64) string { return fmt.Sprintf("%s.d%06d", path, gen) }

// fileDigest is the FNV-1a digest of the file's bytes.
func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}
