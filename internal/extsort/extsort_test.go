package extsort

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
)

func testSim() *iosim.Sim {
	return iosim.New(iosim.Model{
		RandomRead:      10 * time.Millisecond,
		SequentialRead:  time.Millisecond,
		RandomWrite:     10 * time.Millisecond,
		SequentialWrite: time.Millisecond,
		PageSize:        256,
	})
}

const itemSize = 16

// writeItems writes the given uint64 keys as items (key + sequence tail so
// duplicates are distinguishable) and returns the item file.
func writeItems(t *testing.T, sim *iosim.Sim, keys []uint64) *pagefile.ItemFile {
	t.Helper()
	itf := pagefile.NewItemFile(pagefile.NewMem(sim), itemSize)
	w := itf.NewWriter()
	item := make([]byte, itemSize)
	for i, k := range keys {
		binary.LittleEndian.PutUint64(item[0:8], k)
		binary.LittleEndian.PutUint64(item[8:16], uint64(i))
		if err := w.Write(item); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return itf
}

func readKeys(t *testing.T, itf *pagefile.ItemFile) []uint64 {
	t.Helper()
	var keys []uint64
	r := itf.NewReader()
	for {
		item, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, binary.LittleEndian.Uint64(item[0:8]))
	}
	return keys
}

func checkSorted(t *testing.T, keys []uint64, wantLen int) {
	t.Helper()
	if len(keys) != wantLen {
		t.Fatalf("got %d items, want %d", len(keys), wantLen)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("output not sorted")
	}
}

func sortHelper(t *testing.T, keys []uint64, memPages int) []uint64 {
	t.Helper()
	sim := testSim()
	src := writeItems(t, sim, keys)
	dst := pagefile.NewItemFile(pagefile.NewMem(sim), itemSize)
	if err := Sort(dst, src, Key{}, memPages, 1); err != nil {
		t.Fatal(err)
	}
	return readKeys(t, dst)
}

func TestSortSmall(t *testing.T) {
	got := sortHelper(t, []uint64{5, 3, 9, 1, 1, 7}, 3)
	want := []uint64{1, 1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSortEmpty(t *testing.T) {
	got := sortHelper(t, nil, 3)
	if len(got) != 0 {
		t.Fatalf("sorting empty input produced %d items", len(got))
	}
}

func TestSortSingleRun(t *testing.T) {
	// 20 items fit in one 16-items-per-page * 4 page chunk: single run path.
	rng := rand.New(rand.NewPCG(1, 1))
	keys := make([]uint64, 20)
	for i := range keys {
		keys[i] = rng.Uint64N(1000)
	}
	checkSorted(t, sortHelper(t, keys, 4), 20)
}

func TestSortManyRunsMinimalMemory(t *testing.T) {
	// 16 items/page, 3 memory pages: 48-item runs, fan-in 2, so 5000 items
	// force several multi-pass merges.
	rng := rand.New(rand.NewPCG(2, 2))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	checkSorted(t, sortHelper(t, keys, 3), 5000)
}

func TestSortPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	keys := make([]uint64, 2000)
	counts := map[uint64]int{}
	for i := range keys {
		keys[i] = rng.Uint64N(50) // heavy duplication
		counts[keys[i]]++
	}
	got := sortHelper(t, keys, 4)
	checkSorted(t, got, 2000)
	for _, k := range got {
		counts[k]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("key %d count off by %d", k, c)
		}
	}
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	n := 1000
	asc := make([]uint64, n)
	desc := make([]uint64, n)
	for i := 0; i < n; i++ {
		asc[i] = uint64(i)
		desc[i] = uint64(n - i)
	}
	checkSorted(t, sortHelper(t, asc, 3), n)
	checkSorted(t, sortHelper(t, desc, 3), n)
}

func TestSortPropertyRandomised(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 25; trial++ {
		n := int(rng.Uint64N(3000))
		mem := 3 + int(rng.Uint64N(6))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64N(1 << 20)
		}
		got := sortHelper(t, keys, mem)
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestSortRejectsBadArguments(t *testing.T) {
	sim := testSim()
	src := writeItems(t, sim, []uint64{1})
	dst := pagefile.NewItemFile(pagefile.NewMem(sim), itemSize)
	if err := Sort(dst, src, Key{}, 2, 1); err == nil {
		t.Fatal("memory budget below minimum should be rejected")
	}
	dst8 := pagefile.NewItemFile(pagefile.NewMem(sim), 8)
	if err := Sort(dst8, src, Key{}, 3, 1); err == nil {
		t.Fatal("item size mismatch should be rejected")
	}
	// Non-empty destination rejected.
	full := writeItems(t, sim, []uint64{9})
	if err := Sort(full, src, Key{}, 3, 1); err == nil {
		t.Fatal("non-empty destination should be rejected")
	}
	if err := Sort(dst, src, Key{Offset: itemSize - 7}, 3, 1); err == nil {
		t.Fatal("a key that does not fit the item should be rejected")
	}
}

func TestSortStableBytesComparator(t *testing.T) {
	// Every form a key descriptor takes orders the output as that form reads
	// the bytes: unsigned and signed, at the head of the item and past it.
	sim := testSim()
	rng := rand.New(rand.NewPCG(5, 5))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64() // half of these are negative as int64
	}
	for _, key := range []Key{{}, {Signed: true}, {Offset: 8}, {Offset: 8, Signed: true}} {
		itf := pagefile.NewItemFile(pagefile.NewMem(sim), itemSize)
		w := itf.NewWriter()
		item := make([]byte, itemSize)
		for i, k := range keys {
			binary.LittleEndian.PutUint64(item[key.Offset:], k)
			binary.LittleEndian.PutUint64(item[8-key.Offset:], uint64(i)) // the other half: noise
			if err := w.Write(item); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		dst := pagefile.NewItemFile(pagefile.NewMem(sim), itemSize)
		if err := Sort(dst, itf, key, 4, 1); err != nil {
			t.Fatal(err)
		}
		if dst.Count() != int64(len(keys)) {
			t.Fatalf("%+v: %d items out, %d in", key, dst.Count(), len(keys))
		}
		r := dst.NewReader()
		var prev uint64
		for i := 0; ; i++ {
			it, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			k := binary.LittleEndian.Uint64(it[key.Offset:])
			if i > 0 && (key.Signed && int64(prev) > int64(k) || !key.Signed && prev > k) {
				t.Fatalf("%+v: order violated at item %d", key, i)
			}
			prev = k
		}
	}
}

func TestSortChargesSimulatedTime(t *testing.T) {
	sim := testSim()
	rng := rand.New(rand.NewPCG(6, 6))
	keys := make([]uint64, 4000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	src := writeItems(t, sim, keys)
	before := sim.Now()
	dst := pagefile.NewItemFile(pagefile.NewMem(sim), itemSize)
	if err := Sort(dst, src, Key{}, 8, 1); err != nil {
		t.Fatal(err)
	}
	if sim.Now() == before {
		t.Fatal("external sort performed no charged I/O")
	}
	c := sim.Counters()
	if c.Reads() == 0 || c.Writes() == 0 {
		t.Fatalf("expected both reads and writes, got %+v", c)
	}
}

func TestSortQuickProperty(t *testing.T) {
	// testing/quick: for arbitrary key multisets and memory budgets, the
	// external sort agrees with the standard library sort.
	check := func(keysRaw []uint32, memRaw uint8) bool {
		mem := 3 + int(memRaw%8)
		keys := make([]uint64, len(keysRaw))
		for i, k := range keysRaw {
			keys[i] = uint64(k % 512) // force duplicates
		}
		got := sortHelper(t, keys, mem)
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// rawBytes reads the full item region of an item file, tail padding
// included, so byte-identity between two sorts can be asserted exactly.
func rawBytes(t *testing.T, itf *pagefile.ItemFile) []byte {
	t.Helper()
	ps := itf.File().PageSize()
	out := make([]byte, int(itf.NumPages())*ps)
	for p := int64(0); p < itf.NumPages(); p++ {
		if err := itf.File().Read(itf.StartPage()+p, out[int(p)*ps:]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSortWorkersByteIdentical verifies the determinism claim at the sorter
// level: for any worker count, Sort produces the same bytes (including tie
// order between duplicate keys) and the same simulated charges and time as
// with 1 worker, and a rerun at the same count charges the same again
// whatever the goroutine scheduling.
func TestSortWorkersByteIdentical(t *testing.T) {
	type cost struct {
		c   iosim.Counters
		now time.Duration
	}
	rng := rand.New(rand.NewPCG(11, 12))
	for _, n := range []int{0, 1, 100, 5000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() % 500 // plenty of duplicate keys
		}
		for _, memPages := range []int{3, 4, 16} {
			sortOnce := func(workers int) ([]byte, cost) {
				sim := testSim()
				src := writeItems(t, sim, keys)
				dst := pagefile.NewItemFile(pagefile.NewMem(sim), itemSize)
				if err := Sort(dst, src, Key{}, memPages, workers); err != nil {
					t.Fatal(err)
				}
				return rawBytes(t, dst), cost{sim.Counters(), sim.Now()}
			}
			want, wantCost := sortOnce(1)
			// 0 workers counts as 1.
			for _, workers := range []int{0, 2, 4, 7} {
				got, gotCost := sortOnce(workers)
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d memPages=%d workers=%d: output differs from 1 worker's", n, memPages, workers)
				}
				if gotCost != wantCost {
					t.Fatalf("n=%d memPages=%d workers=%d: charged %+v, 1 worker %+v",
						n, memPages, workers, gotCost, wantCost)
				}
				if _, again := sortOnce(workers); again != gotCost {
					t.Fatalf("n=%d memPages=%d workers=%d: charges not deterministic: %+v vs %+v",
						n, memPages, workers, gotCost, again)
				}
			}
		}
	}
}

// sortTies sorts src into dst by the leading uint64 of each item: the one
// call of the tie-order golden that names the sorter's entry point.
func sortTies(dst, src *pagefile.ItemFile, memPages, workers int) error {
	return Sort(dst, src, Key{}, memPages, workers)
}

// TestSortTieOrderGolden pins the order among equal keys. The sorter is not
// stable: the order of ties is whatever the package's pdqsort makes of each
// chunk and whatever the merge heap makes of the runs, and every
// built view file (and the run digests frozen beside the benchmark) depends
// on it. The sha256 fields were recorded before run formation sorted
// extracted keys and must never be re-recorded for a change to this package;
// the charge fields move only with a change to the reads and appends a sort
// issues, in a commit that says why.
func TestSortTieOrderGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 24))
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = rng.Uint64N(64)
	}
	var out bytes.Buffer
	for _, memPages := range []int{3, 8, 2048} {
		for _, workers := range []int{1, 4} {
			sim := testSim()
			src := writeItems(t, sim, keys)
			dst := pagefile.NewItemFile(pagefile.NewMem(sim), itemSize)
			if err := sortTies(dst, src, memPages, workers); err != nil {
				t.Fatal(err)
			}
			c := sim.Counters()
			fmt.Fprintf(&out, "mem=%d workers=%d sha256=%x rr=%d sr=%d rw=%d sw=%d now=%d\n", memPages, workers,
				sha256.Sum256(rawBytes(t, dst)), c.RandomReads, c.SequentialReads, c.RandomWrites, c.SequentialWrites, int64(sim.Now()))
		}
	}
	const golden = "testdata/tieorder.golden"
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist; wrote a fresh baseline — review and commit it", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, out.Bytes()) {
		t.Fatalf("tie order differs from %s:\ngot\n%swant\n%s", golden, out.Bytes(), want)
	}
}
