package shard

import (
	"cmp"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
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
			checkSampleAllocs(t, func() *View {
				v, err := Create("", genRecords(80_000, 71), Options{K: 4, Seed: 73})
				if err != nil {
					t.Fatal(err)
				}
				if !written {
					return v
				}
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
				return v
			})
		})
	}
}

// drainWarm drains a stream over v by Sample(1 << 20) and closes it, so every
// shard tree holds recycled working memory, then drains a second stream on
// the same predicate through draw, which is handed the draw's index and must
// make the stream's Sample(256), until a batch comes back short.
func drainWarm(t *testing.T, v *View, draw func(k int, s *Stream) []record.Record) {
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
	for k := 0; ; k++ {
		if len(draw(k, s)) < 256 {
			return
		}
	}
}

// checkSampleAllocs drains a warm stream over the view open builds, checking
// that every draw served without a stab makes exactly one allocation. A stab
// is counted where it is made, not by the pages charged: once a shard's
// drain pass holds its leaves, a stab reads none. A draw or a drain past its
// bound is replayed on a fresh view with every allocation profiled, and the
// stacks are logged.
func checkSampleAllocs(t *testing.T, open func() *View) {
	v := open()
	defer v.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Mallocs counts the runtime's objects too. With one P it has no idle P
	// to start an OS thread for; a thread started inside a draw's window
	// (an m, its two gs and two profiling stack buffers) would count as five
	// allocations of the draw's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	noStab, records, total := 0, 0, uint64(0)
	drainWarm(t, v, func(k int, s *Stream) []record.Record {
		made := stabs(s)
		runtime.ReadMemStats(&before)
		batch, err := s.Sample(256)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) < 256 {
			return batch
		}
		records += len(batch)
		total += after.TotalAlloc - before.TotalAlloc
		if stabs(s) == made {
			noStab++
			if m := after.Mallocs - before.Mallocs; m != 1 {
				t.Logf("draw %d replayed, every allocation profiled:\n%s", k,
					allocStacks(t, open, func(j int) bool { return j == k }))
				t.Fatalf("a Sample(256) served from emitted records made %d allocations, want 1 (the result)", m)
			}
		}
		return batch
	})
	t.Logf("%d of %d draws made no stab; %.0f bytes allocated per record", noStab, records/256, float64(total)/float64(records))
	if noStab == 0 {
		t.Fatal("no Sample(256) was served without a stab; the gate checked nothing")
	}
	// Whole drain: the result slices (one record size each, rounded to a size
	// class) plus what parking allocates: nothing in a recycled chunk, an
	// exact-size copy once the stream holds its tree's bound of chunks. A
	// record is 104 B in memory: 125 and 123 B measured here, in the plain and
	// the -race build alike, and 175 and 170 B with an exact-size copy per park.
	if perRec := float64(total) / float64(records); perRec > 1.6*float64(unsafe.Sizeof(record.Record{})) {
		t.Logf("drain replayed, every allocation profiled:\n%s", allocStacks(t, open, func(int) bool { return true }))
		t.Fatalf("draining by Sample(256) allocated %.0f bytes per record, want <= 1.6 records' worth", perRec)
	}
}

// stabs counts the stabs s's shard streams made.
func stabs(s *Stream) (n int64) {
	for _, ls := range s.leaves {
		n += ls.LeavesRead()
	}
	return n
}

// allocStacks builds a fresh view by open, replays drainWarm on it, and
// returns the stacks that allocated during the draws pick selects, with every
// allocation profiled (runtime.MemProfileRate = 1).
func allocStacks(t *testing.T, open func() *View, pick func(k int) bool) string {
	gc := debug.SetGCPercent(100)
	v := open()
	debug.SetGCPercent(gc)
	defer v.Close()
	allocs := map[[32]uintptr][2]int64{}
	drainWarm(t, v, func(k int, s *Stream) []record.Record {
		var batch []record.Record
		var err error
		if draw := func() { batch, err = s.Sample(256) }; pick(k) {
			profileAllocs(allocs, draw)
		} else {
			draw()
		}
		if err != nil {
			t.Fatal(err)
		}
		return batch
	})
	return formatStacks(allocs)
}

// profileAllocs, memProfile, inMemProfile and formatStacks are twins of the root package's
// allocation gate's: a test package cannot import another's.

// profileAllocs runs f with every allocation profiled and adds to allocs the
// objects and bytes each stack allocated while f ran. A control window with
// nothing in it comes first, and what it holds is taken off: the allocations
// the profiling sets off by itself (the runtime's unique-map cleanup, which
// each collection wakes). memProfile's own allocations are left out.
func profileAllocs(allocs map[[32]uintptr][2]int64, f func()) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	base := memProfile()
	ctl := memProfile()
	f()
	for stk, r := range memProfile() {
		c, b := ctl[stk], base[stk]
		if d := r.AllocObjects - 2*c.AllocObjects + b.AllocObjects; d > 0 && !inMemProfile(r.Stack()) {
			a := allocs[stk]
			allocs[stk] = [2]int64{a[0] + d, a[1] + r.AllocBytes - 2*c.AllocBytes + b.AllocBytes}
		}
	}
}

// memProfile returns the memory profile by stack, after a collection has
// published every allocation made before it. It then yields, so the cleanup
// the collection woke runs in the caller's window, not in the next.
func memProfile() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC()
	runtime.Gosched()
	recs := make([]runtime.MemProfileRecord, 512)
	n, ok := runtime.MemProfile(recs, true)
	for ; !ok; n, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	m := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		m[r.Stack0] = r
	}
	return m
}

// inMemProfile reports whether stack runs through memProfile.
func inMemProfile(stack []uintptr) bool {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".memProfile") {
			return true
		}
		if !more {
			return false
		}
	}
}

// formatStacks renders the stacks in allocs, most objects first.
func formatStacks(allocs map[[32]uintptr][2]int64) string {
	if len(allocs) == 0 {
		return "\tno allocation\n"
	}
	var b strings.Builder
	var stacks [][32]uintptr
	for stk := range allocs {
		stacks = append(stacks, stk)
	}
	slices.SortFunc(stacks, func(x, y [32]uintptr) int { return cmp.Compare(allocs[y][0], allocs[x][0]) })
	for _, stk := range stacks[:min(len(stacks), 8)] {
		fmt.Fprintf(&b, "%d objects, %d B:\n", allocs[stk][0], allocs[stk][1])
		r := runtime.MemProfileRecord{Stack0: stk}
		frames := runtime.CallersFrames(r.Stack())
		for range 12 {
			f, more := frames.Next()
			fmt.Fprintf(&b, "\t%s %s:%d\n", f.Function, filepath.Base(f.File), f.Line)
			if !more {
				break
			}
		}
	}
	return b.String()
}
