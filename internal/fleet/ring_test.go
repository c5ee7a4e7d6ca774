package fleet

import (
	"fmt"
	"testing"
)

func TestRingWalkCoversEveryReplicaOnce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		r := newRing(n)
		for k := 0; k < 50; k++ {
			order := r.walk(fmt.Sprintf("tenant-%d/view", k))
			if len(order) != n {
				t.Fatalf("n=%d key %d: walk returned %d replicas, want %d", n, k, len(order), n)
			}
			seen := make(map[int]bool)
			for _, idx := range order {
				if idx < 0 || idx >= n {
					t.Fatalf("n=%d: walk yielded out-of-range index %d", n, idx)
				}
				if seen[idx] {
					t.Fatalf("n=%d key %d: replica %d appears twice in walk %v", n, k, idx, order)
				}
				seen[idx] = true
			}
		}
	}
}

func TestRingWalkDeterministic(t *testing.T) {
	a := newRing(5)
	b := newRing(5)
	for k := 0; k < 100; k++ {
		key := fmt.Sprintf("t%d/orders", k)
		wa, wb := a.walk(key), b.walk(key)
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("key %q: independent rings disagree: %v vs %v", key, wa, wb)
			}
		}
	}
}

// TestRingDistribution checks that first-owner assignment is roughly
// balanced: with the default vnode count no replica should own a wildly
// disproportionate share of keys.
func TestRingDistribution(t *testing.T) {
	const n, keys = 4, 8000
	r := newRing(n)
	owners := make([]int, n)
	for k := 0; k < keys; k++ {
		owners[r.walk(fmt.Sprintf("tenant-%d/view-%d", k%97, k))[0]]++
	}
	for i, c := range owners {
		frac := float64(c) / keys
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("replica %d owns %.1f%% of keys (%v), outside sane balance", i, 100*frac, owners)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := newRing(0)
	if got := r.walk("anything"); len(got) != 0 {
		t.Fatalf("empty ring walk returned %v, want empty", got)
	}
}
