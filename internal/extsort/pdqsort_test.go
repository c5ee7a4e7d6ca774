package extsort

import (
	"cmp"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sortWorkers sorts data the way a chunk of Sort does, holding one of
// workers and lending the rest to the sort.
func sortWorkers(data []pair, workers int) {
	var cw crew
	if workers > 1 {
		cw = make(crew, workers)
		cw <- struct{}{}
	}
	sortPairs(data, cw)
}

// pairsOf returns one pair per key whose off is the key's index, so two
// orders of equal keys are told apart.
func pairsOf(keys []uint64) []pair {
	data := make([]pair, len(keys))
	for i, k := range keys {
		data[i] = pair{k, i}
	}
	return data
}

// keyPatterns are the inputs pdqsort treats specially: random, few distinct
// keys, all equal, already sorted either way, organ pipe, nearly sorted.
var keyPatterns = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []uint64
}{
	{"random", func(rng *rand.Rand, n int) []uint64 { return fill(n, func(int) uint64 { return rng.Uint64() }) }},
	{"few", func(rng *rand.Rand, n int) []uint64 { return fill(n, func(int) uint64 { return rng.Uint64N(4) }) }},
	{"equal", func(_ *rand.Rand, n int) []uint64 { return fill(n, func(int) uint64 { return 7 }) }},
	{"ascending", func(_ *rand.Rand, n int) []uint64 { return fill(n, func(i int) uint64 { return uint64(i) }) }},
	{"descending", func(_ *rand.Rand, n int) []uint64 { return fill(n, func(i int) uint64 { return uint64(n - i) }) }},
	{"organ-pipe", func(_ *rand.Rand, n int) []uint64 {
		return fill(n, func(i int) uint64 { return uint64(min(i, n-i)) })
	}},
	{"near-sorted", func(rng *rand.Rand, n int) []uint64 {
		keys := fill(n, func(i int) uint64 { return uint64(i) })
		for range n/100 + 1 {
			i, j := rng.IntN(max(n, 1)), rng.IntN(max(n, 1))
			if n > 0 {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
		return keys
	}},
}

func fill(n int, f func(i int) uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = f(i)
	}
	return keys
}

// checkMatchesReference sorts keys with the package's copy at each worker
// count and demands exactly slices.SortFunc's order, ties included.
func checkMatchesReference(t *testing.T, name string, keys []uint64, workers ...int) {
	t.Helper()
	want := pairsOf(keys)
	slices.SortFunc(want, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	for _, w := range workers {
		got := pairsOf(keys)
		sortWorkers(got, w)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%s n=%d workers=%d: at %d got %+v, slices.SortFunc has %+v", name, len(keys), w, i, got[i], want[i])
		}
	}
}

func firstDiff(a, b []pair) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestSortPairsMatchesSlicesSortFunc is the copy's contract: the order it
// leaves, equal keys included, is slices.SortFunc's with cmp.Compare on the
// keys, at every worker count. Lengths straddle the algorithm's thresholds
// (8 and 50 for the pivot, 12 for insertion sort) and reach past forkLen,
// where ranges go to other workers.
func TestSortPairsMatchesSlicesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 36))
	for _, p := range keyPatterns {
		for _, n := range []int{0, 1, 2, 7, 8, 9, 11, 12, 13, 49, 50, 51, 100, 100_000, 1_000_000} {
			checkMatchesReference(t, p.name, p.gen(rng, n), 1, 2, 4)
		}
	}
}

// TestSortPairsHeapsortFallback replays testdata/heapsort.keys, an input
// McIlroy's adversary comparator built against slices.SortFunc: every
// partition is as unbalanced as it can be, so the sort spends its budget of
// bad pivots and finishes ranges by heapsort.
func TestSortPairsHeapsortFallback(t *testing.T) {
	raw, err := os.ReadFile("testdata/heapsort.keys")
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for _, f := range strings.Fields(string(raw)) {
		k, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	checkMatchesReference(t, "adversary", keys, 1, 2)
}

// FuzzSortPairs compares the copy with slices.SortFunc on byte keys (many
// ties) repeated reps times, long enough at high reps to fork.
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint8(0), uint8(1))
	f.Add([]byte("pattern-defeating quicksort"), uint8(7), uint8(2))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(255), uint8(4))
	f.Add(make([]byte, 64), uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, reps, workers uint8) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		keys := make([]uint64, 0, len(raw)*(int(reps)+1))
		for r := range int(reps) + 1 {
			for _, b := range raw {
				keys = append(keys, uint64(b)+uint64(r%3))
			}
		}
		checkMatchesReference(t, "fuzz", keys, 1, int(workers%4)+1)
	})
}
