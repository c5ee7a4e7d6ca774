// Package kary implements the k-ary ACE Tree variant the paper weighs and
// rejects in Section III-D, so that the binary-versus-k-ary design choice
// can be measured rather than argued: each internal node carries k-1 split
// keys and k children, a query stab round-robins over the k children, and
// the data space is divided k ways per level, so the query algorithm must
// retrieve up to k leaves before it can append sections spanning the
// query. The structure is built in memory (it exists for the ablation
// benchmark), but leaf data lives in a page file and every leaf retrieval
// is charged to the simulated disk exactly like the production tree's.
package kary

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

// Tree is a k-ary ACE tree over the Key attribute.
type Tree struct {
	k, h    int
	nLeaves int
	f       *pagefile.File
	count   int

	// splits[l][j*(k-1)+i] is the i-th split key of node j at level l+1
	// (levels 1..h-1 have splits; level h are the leaves).
	splits [][]int64
	// ranges[l][j] is the key range of node j at level l+1.
	ranges [][]record.Range

	leaves []leafMeta
}

type leafMeta struct {
	firstPage int64
	secCounts []int32
}

func (m *leafMeta) total() int64 {
	var n int64
	for _, c := range m.secCounts {
		n += int64(c)
	}
	return n
}

// pow returns k^e for small arguments.
func pow(k, e int) int {
	n := 1
	for i := 0; i < e; i++ {
		n *= k
	}
	return n
}

// Build constructs a k-ary ACE tree of height h (h sections per leaf,
// k^(h-1) leaves) over recs, storing leaf data in f.
func Build(f *pagefile.File, recs []record.Record, k, h int, seed uint64) (*Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("kary: arity must be at least 2, got %d", k)
	}
	if h < 1 {
		return nil, fmt.Errorf("kary: height must be at least 1, got %d", h)
	}
	if f.NumPages() != 0 {
		return nil, fmt.Errorf("kary: destination file is not empty")
	}
	t := &Tree{k: k, h: h, nLeaves: pow(k, h-1), f: f, count: len(recs)}

	// Phase 1: sort by key and pick the k-quantiles of every node's rank
	// interval as its split keys.
	byKey := make([]record.Record, len(recs))
	copy(byKey, recs)
	sort.Slice(byKey, func(i, j int) bool { return byKey[i].Key < byKey[j].Key })

	t.splits = make([][]int64, h-1)
	t.ranges = make([][]record.Range, h)
	t.ranges[0] = []record.Range{record.FullRange()}
	type interval struct{ lo, hi int } // rank interval of a node
	level := []interval{{0, len(byKey)}}
	for l := 1; l < h; l++ {
		t.splits[l-1] = make([]int64, 0, pow(k, l-1)*(k-1))
		t.ranges[l] = make([]record.Range, 0, pow(k, l))
		var next []interval
		for j, iv := range level {
			parent := t.ranges[l-1][j]
			lo := parent.Lo
			prev := iv.lo
			for c := 1; c <= k; c++ {
				if c < k {
					cut := iv.lo + (iv.hi-iv.lo)*c/k
					var splitKey int64
					if len(byKey) == 0 {
						splitKey = 0
					} else if cut >= len(byKey) {
						splitKey = byKey[len(byKey)-1].Key
					} else {
						splitKey = byKey[cut].Key
					}
					t.splits[l-1] = append(t.splits[l-1], splitKey)
					t.ranges[l] = append(t.ranges[l], record.Range{Lo: lo, Hi: splitKey})
					next = append(next, interval{prev, cut})
					lo = splitKey + 1
					prev = cut
				} else {
					t.ranges[l] = append(t.ranges[l], record.Range{Lo: lo, Hi: parent.Hi})
					next = append(next, interval{prev, iv.hi})
				}
			}
		}
		level = next
	}

	// Phase 2: section + leaf assignment, then grouping.
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	type tagged struct {
		leaf, sec int
		rec       record.Record
	}
	tags := make([]tagged, len(recs))
	for i, rec := range recs {
		s := 1 + rng.IntN(h)
		node := 0
		for l := 1; l < s; l++ {
			base := node * (t.k - 1)
			c := 0
			for c < t.k-1 && rec.Key > t.splits[l-1][base+c] {
				c++
			}
			node = node*t.k + c
		}
		below := pow(t.k, t.h-s)
		tags[i] = tagged{leaf: node*below + rng.IntN(below), sec: s - 1, rec: rec}
	}
	sort.Slice(tags, func(i, j int) bool {
		if tags[i].leaf != tags[j].leaf {
			return tags[i].leaf < tags[j].leaf
		}
		return tags[i].sec < tags[j].sec
	})

	// Write page-aligned leaves.
	t.leaves = make([]leafMeta, t.nLeaves)
	for i := range t.leaves {
		t.leaves[i].secCounts = make([]int32, h)
	}
	perPage := f.PageSize() / record.Size
	page := make([]byte, f.PageSize())
	inPage := 0
	flush := func() error {
		if inPage == 0 {
			return nil
		}
		for i := inPage * record.Size; i < len(page); i++ {
			page[i] = 0
		}
		_, err := f.Append(page)
		inPage = 0
		return err
	}
	current := -1
	for _, tg := range tags {
		if tg.leaf != current {
			if err := flush(); err != nil {
				return nil, err
			}
			current = tg.leaf
			t.leaves[tg.leaf].firstPage = f.NumPages()
		}
		t.leaves[tg.leaf].secCounts[tg.sec]++
		tg.rec.Marshal(page[inPage*record.Size:])
		inPage++
		if inPage == perPage {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	for i := range t.leaves {
		if t.leaves[i].total() == 0 {
			t.leaves[i].firstPage = f.NumPages()
		}
	}
	return t, nil
}

// Arity returns k.
func (t *Tree) Arity() int { return t.k }

// Height returns h (sections per leaf).
func (t *Tree) Height() int { return t.h }

// NumLeaves returns k^(h-1).
func (t *Tree) NumLeaves() int { return t.nLeaves }

// readLeaf loads one leaf's sections from the page file.
func (t *Tree) readLeaf(leaf int) ([][]record.Record, error) {
	m := &t.leaves[leaf]
	total := m.total()
	out := make([][]record.Record, t.h)
	if total == 0 {
		return out, nil
	}
	perPage := int64(t.f.PageSize() / record.Size)
	pages := (total + perPage - 1) / perPage
	buf := make([]byte, t.f.PageSize())
	flat := make([]record.Record, 0, total)
	for p := int64(0); p < pages; p++ {
		if err := t.f.Read(m.firstPage+p, buf); err != nil {
			return nil, err
		}
		n := perPage
		if rem := total - p*perPage; rem < n {
			n = rem
		}
		for i := int64(0); i < n; i++ {
			var rec record.Record
			rec.Unmarshal(buf[i*record.Size : (i+1)*record.Size])
			flat = append(flat, rec)
		}
	}
	off := 0
	for s := 0; s < t.h; s++ {
		n := int(m.secCounts[s])
		out[s] = flat[off : off+n]
		off += n
	}
	return out, nil
}
