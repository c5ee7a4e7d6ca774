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
// closed stream), a Sample(256) that reads no page — every shard it draws
// from has its records already emitted — allocates its result slice and
// nothing else: the K-way merge, the per-shard draws and the in-place batch
// shuffles add nothing. Draws that stab add what the stab parks, never a
// copy of the batch.
func TestSampleAllocatesOnlyItsResult(t *testing.T) {
	v, err := Create("", genRecords(80_000, 71), Options{K: 4, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
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
	var before, after runtime.MemStats
	noStab, records, total := 0, 0, uint64(0)
	for {
		reads := s.Stats().Counters.Reads()
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
		if s.Stats().Counters.Reads() == reads {
			noStab++
			if n := after.Mallocs - before.Mallocs; n != 1 {
				t.Fatalf("a Sample(256) served from emitted records made %d allocations, want 1 (the result)", n)
			}
		}
	}
	t.Logf("%d of %d draws read no page; %.0f bytes allocated per record", noStab, records/256, float64(total)/float64(records))
	if noStab == 0 {
		t.Fatal("no Sample(256) was served without a stab; the gate checked nothing")
	}
	// Whole drain: the result slices (one record size each, rounded to a size
	// class) plus each record parked at most once.
	if perRec := float64(total) / float64(records); perRec > 2.4*float64(unsafe.Sizeof(record.Record{})) {
		t.Fatalf("draining by Sample(256) allocated %.0f bytes per record, want <= 2.4 records' worth", perRec)
	}
}
