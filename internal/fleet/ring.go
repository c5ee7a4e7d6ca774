package fleet

import (
	"hash/fnv"
	"sort"

	"sampleview/internal/splitmix"
)

// ring is a consistent-hash ring over replica indices. Each replica owns
// vnodes points on a 64-bit circle; a key hashes to a point and walks
// clockwise, yielding replicas in a deterministic, key-specific order. Two
// properties matter to the router: the walk order is stable (the same
// (tenant, view) key always prefers the same replica, so its streams and
// cache locality concentrate), and removing a replica only reassigns the
// keys that replica owned (the rest of the fleet is undisturbed).
type ring struct {
	points []ringPoint // sorted by hash
	n      int
}

type ringPoint struct {
	hash uint64
	idx  int
}

// hashKey folds a string key through FNV-1a and mixes the result.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return splitmix.Mix(h.Sum64())
}

// vnodes is the number of points each replica owns on the ring.
const vnodes = 64

// newRing builds a ring over n replicas with vnodes points each. Point
// hashes derive from (replica index, vnode index) alone, so every router
// over the same fleet computes the identical ring.
func newRing(n int) *ring {
	r := &ring{points: make([]ringPoint, 0, n*vnodes), n: n}
	for i := 0; i < n; i++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: splitmix.Mix(uint64(i)<<32 | uint64(v)),
				idx:  i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// walk returns the replica indices in the key's clockwise walk order: the
// key's owner first, then each distinct replica as its points are passed.
// Every replica appears exactly once.
func (r *ring) walk(key string) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; len(out) < r.n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, p.idx)
		}
	}
	return out
}
