package shard

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// TestSampleAllocatesOnlyItsResult is the merged stream's allocation gate:
// on a warm view (every shard tree holding working memory recycled from a
// closed stream), a Sample(256) that makes no stab — every shard it draws
// from has its records already emitted — allocates its result slice and
// nothing else: the K-way merge, the per-shard draws and the in-place batch
// shuffles add nothing. Draws that stab add what the stab parks, never a
// copy of the batch. The view with a write path (a flushed level and a
// memview on every shard) gates the partition merge too: its sources' draws
// add nothing either.
func TestSampleAllocatesOnlyItsResult(t *testing.T) {
	for _, written := range []bool{false, true} {
		t.Run(map[bool]string{false: "base", true: "memview+level"}[written], func(t *testing.T) {
			v, err := Create("", genRecords(80_000, 71), Options{K: 4, Seed: 73})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			if written {
				fresh := genRecords(8_000, 72)
				for i := range fresh {
					fresh[i].Seq += 1 << 32
					if err := v.Insert(fresh[i]); err != nil {
						t.Fatal(err)
					}
					if i == len(fresh)/2 {
						if err := v.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if n := v.DeltaLevels(); n != 1 {
					t.Fatalf("%d delta levels, want one", n)
				}
			}
			checkSampleAllocs(t, v)
		})
	}
}

// checkSampleAllocs drains a warm stream over v by Sample(256), checking
// that every draw served without a stab makes exactly one allocation. A stab
// is counted where it is made, not by the pages charged: once a shard's
// drain pass holds its leaves, a stab reads none.
func checkSampleAllocs(t *testing.T, v *View) {
	q := record.Box1D(0, workload.KeyDomain/4)
	warm, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Sample(1 << 20); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	s, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Mallocs counts the runtime's objects too. With one P it has no idle P
	// to start an OS thread for; a thread started inside a draw's window
	// (an m, its two gs and two profiling stack buffers) would count as five
	// allocations of the draw's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	noStab, records, total := 0, 0, uint64(0)
	stabs := func() (n int64) {
		for _, ls := range s.leaves {
			n += ls.LeavesRead()
		}
		return n
	}
	for {
		made := stabs()
		runtime.ReadMemStats(&before)
		batch, err := s.Sample(256)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) < 256 {
			break
		}
		records += len(batch)
		total += after.TotalAlloc - before.TotalAlloc
		if stabs() == made {
			noStab++
			if n := after.Mallocs - before.Mallocs; n != 1 {
				t.Fatalf("a Sample(256) served from emitted records made %d allocations, want 1 (the result)", n)
			}
		}
	}
	t.Logf("%d of %d draws made no stab; %.0f bytes allocated per record", noStab, records/256, float64(total)/float64(records))
	if noStab == 0 {
		t.Fatal("no Sample(256) was served without a stab; the gate checked nothing")
	}
	// Whole drain: the result slices (one record size each, rounded to a size
	// class) plus what parking allocates: nothing in a recycled chunk, an
	// exact-size copy once the stream holds its tree's bound of chunks. A
	// record is 104 B in memory: 164 and 160 B measured here, in the plain and
	// the -race build alike, and 175 and 170 B with an exact-size copy per park.
	if perRec := float64(total) / float64(records); perRec > 1.6*float64(unsafe.Sizeof(record.Record{})) {
		t.Fatalf("draining by Sample(256) allocated %.0f bytes per record, want <= 1.6 records' worth", perRec)
	}
}
