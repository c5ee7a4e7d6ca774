// Package btree implements the ranked B+-Tree baseline of the paper
// (Section II-B): a bulk-loaded primary B+-Tree whose internal entries are
// augmented with subtree record counts so that the i-th record in key order
// can be located, plus Antoshenkov's iterative rank-based sampling
// algorithm (the paper's Algorithm 1).
//
// The tree is a primary index: the sorted records themselves are the leaf
// level, stored one disk page at a time, with internal node pages packed
// behind them. All reads go through a caller-supplied LRU buffer pool; the
// sampling behaviour the paper measures (slow while leaf pages fault in,
// fast once the range is resident) falls out of that.
package btree

import (
	"encoding/binary"
	"fmt"

	"sampleview/internal/extsort"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

const (
	magic = uint64(0x5356425452454531) // "SVBTREE1"

	nodeHeaderSize = 8  // nentries uint32, level uint32
	entrySize      = 24 // minKey int64, child int64, count int64
)

// Tree is a ranked B+-Tree over records sorted by Key.
type Tree struct {
	f        *pagefile.File
	pool     *pagefile.Pool
	items    *pagefile.ItemFile // leaf level: sorted records
	count    int64
	rootPage int64
	height   int // number of internal levels (0 for an empty tree)
}

// Build bulk-loads a ranked B+-Tree over the records of src into dst, which
// must be an empty page file. The records are externally sorted by Key with
// memPages pages of memory, exactly like the paper's "standard B+-Tree bulk
// construction". Reads go through pool.
func Build(dst *pagefile.File, src *pagefile.ItemFile, pool *pagefile.Pool, memPages int) (*Tree, error) {
	if dst.NumPages() != 0 {
		return nil, fmt.Errorf("btree: destination file is not empty")
	}
	if src.ItemSize() != record.Size {
		return nil, fmt.Errorf("btree: source item size %d is not a record", src.ItemSize())
	}
	if err := pagefile.WriteHeader(dst, magic, 0, 0, 0); err != nil {
		return nil, err
	}

	// Leaf level: external sort by key straight into the data region.
	items := pagefile.NewItemFile(dst, record.Size)
	if err := extsort.Sort(items, src, extsort.Key{Signed: true}, memPages, 1); err != nil {
		return nil, fmt.Errorf("btree: sorting records: %w", err)
	}

	t := &Tree{f: dst, pool: pool, items: items, count: items.Count()}
	if err := t.buildInternalLevels(); err != nil {
		return nil, err
	}
	if err := pagefile.WriteHeader(dst, magic, t.count, t.rootPage, int64(t.height)); err != nil {
		return nil, err
	}
	return t, nil
}

// Open opens a tree previously written by Build.
func Open(f *pagefile.File, pool *pagefile.Pool) (*Tree, error) {
	var count, rootPage, height int64
	if err := pagefile.ReadHeader(f, magic, &count, &rootPage, &height); err != nil {
		return nil, fmt.Errorf("btree: %w", err)
	}
	items, err := pagefile.OpenItemFile(f, record.Size, 1, count)
	if err != nil {
		return nil, fmt.Errorf("btree: %w", err)
	}
	return &Tree{
		f:        f,
		pool:     pool,
		items:    items,
		count:    count,
		rootPage: rootPage,
		height:   int(height),
	}, nil
}

// entry is one (minKey, child, count) triple of an internal node.
type entry struct {
	minKey int64
	child  int64
	count  int64
}

// fanout returns how many entries fit in one internal node page.
func (t *Tree) fanout() int { return (t.f.PageSize() - nodeHeaderSize) / entrySize }

// buildInternalLevels scans the sorted data region to form the lowest
// internal level and then packs levels upward until a single root remains.
func (t *Tree) buildInternalLevels() error {
	if t.count == 0 {
		t.rootPage = 0
		t.height = 0
		return nil
	}
	// Collect (minKey, page, count) for every data page with one
	// sequential scan.
	perPage := int64(t.items.PerPage())
	nPages := t.items.NumPages()
	entries := make([]entry, 0, nPages)
	r := t.items.NewReader()
	for p := int64(0); p < nPages; p++ {
		cnt := perPage
		if rem := t.count - p*perPage; rem < cnt {
			cnt = rem
		}
		var first record.Record
		for i := int64(0); i < cnt; i++ {
			item, err := r.Next()
			if err != nil {
				return err
			}
			if i == 0 {
				first.Unmarshal(item)
			}
		}
		entries = append(entries, entry{minKey: first.Key, child: t.items.StartPage() + p, count: cnt})
	}

	level := 1
	for {
		next, err := t.writeLevel(entries, level)
		if err != nil {
			return err
		}
		if len(next) == 1 {
			t.rootPage = next[0].child
			t.height = level
			return nil
		}
		entries = next
		level++
	}
}

// writeLevel packs entries into internal node pages at the given level and
// returns the entries describing those new nodes.
func (t *Tree) writeLevel(entries []entry, level int) ([]entry, error) {
	fanout := t.fanout()
	page := make([]byte, t.f.PageSize())
	var parents []entry
	for lo := 0; lo < len(entries); lo += fanout {
		hi := min(lo+fanout, len(entries))
		group := entries[lo:hi]
		for i := range page {
			page[i] = 0
		}
		binary.LittleEndian.PutUint32(page[0:4], uint32(len(group)))
		binary.LittleEndian.PutUint32(page[4:8], uint32(level))
		var total int64
		for i, e := range group {
			off := nodeHeaderSize + i*entrySize
			binary.LittleEndian.PutUint64(page[off:off+8], uint64(e.minKey))
			binary.LittleEndian.PutUint64(page[off+8:off+16], uint64(e.child))
			binary.LittleEndian.PutUint64(page[off+16:off+24], uint64(e.count))
			total += e.count
		}
		pg, err := t.f.Append(page)
		if err != nil {
			return nil, err
		}
		parents = append(parents, entry{minKey: group[0].minKey, child: pg, count: total})
	}
	return parents, nil
}

// readNode reads an internal node page through the buffer pool.
func (t *Tree) readNode(pg int64) ([]entry, int, error) {
	buf := t.f.PageBuf()
	defer t.f.PutPageBuf(buf)
	if err := t.pool.ReadInto(t.f, pg, buf); err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	level := int(binary.LittleEndian.Uint32(buf[4:8]))
	entries := make([]entry, n)
	for i := 0; i < n; i++ {
		off := nodeHeaderSize + i*entrySize
		entries[i] = entry{
			minKey: int64(binary.LittleEndian.Uint64(buf[off : off+8])),
			child:  int64(binary.LittleEndian.Uint64(buf[off+8 : off+16])),
			count:  int64(binary.LittleEndian.Uint64(buf[off+16 : off+24])),
		}
	}
	return entries, level, nil
}

// Count returns the number of records in the tree.
func (t *Tree) Count() int64 { return t.count }

// Height returns the number of internal levels.
func (t *Tree) Height() int { return t.height }

// RankGE returns the number of records whose key is strictly less than k,
// which is also the zero-based rank of the first record with key >= k.
func (t *Tree) RankGE(k int64) (int64, error) {
	if t.count == 0 {
		return 0, nil
	}
	pg := t.rootPage
	var rank int64
	for lvl := t.height; lvl >= 1; lvl-- {
		entries, gotLvl, err := t.readNode(pg)
		if err != nil {
			return 0, err
		}
		if gotLvl != lvl {
			return 0, fmt.Errorf("btree: corrupt node: level %d, want %d", gotLvl, lvl)
		}
		// Descend into the last child whose minKey < k (duplicates of k may
		// trail into it); default to the first child.
		idx := 0
		for i := 1; i < len(entries); i++ {
			if entries[i].minKey < k {
				idx = i
			} else {
				break
			}
		}
		for i := 0; i < idx; i++ {
			rank += entries[i].count
		}
		pg = entries[idx].child
	}
	// pg is now a data page: binary search for the first key >= k.
	buf := t.f.PageBuf()
	defer t.f.PutPageBuf(buf)
	if err := t.pool.ReadInto(t.f, pg, buf); err != nil {
		return 0, err
	}
	first := (pg - t.items.StartPage()) * int64(t.items.PerPage())
	n := min(int64(t.items.PerPage()), t.count-first)
	lo, hi := int64(0), n
	for lo < hi {
		mid := (lo + hi) / 2
		key := int64(binary.LittleEndian.Uint64(buf[mid*record.Size : mid*record.Size+8]))
		if key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return rank + lo, nil
}

// RankRange returns the inclusive rank interval [r1, r2] of the records
// whose keys fall in q, with r2 < r1 when no record matches. These are
// steps 1 and 2 of the paper's Algorithm 1.
func (t *Tree) RankRange(q record.Range) (r1, r2 int64, err error) {
	r1, err = t.RankGE(q.Lo)
	if err != nil {
		return 0, 0, err
	}
	if q.Hi == int64(1<<63-1) {
		return r1, t.count - 1, nil
	}
	r2end, err := t.RankGE(q.Hi + 1)
	if err != nil {
		return 0, 0, err
	}
	return r1, r2end - 1, nil
}

// RecordByRank returns the record with the given zero-based rank in key
// order, descending through the counted internal nodes (step 3.c of
// Algorithm 1).
func (t *Tree) RecordByRank(rank int64) (record.Record, error) {
	var rec record.Record
	if rank < 0 || rank >= t.count {
		return rec, fmt.Errorf("btree: rank %d out of range [0,%d)", rank, t.count)
	}
	pg := t.rootPage
	rem := rank
	for lvl := t.height; lvl >= 1; lvl-- {
		entries, _, err := t.readNode(pg)
		if err != nil {
			return rec, err
		}
		i := 0
		for i < len(entries)-1 && rem >= entries[i].count {
			rem -= entries[i].count
			i++
		}
		pg = entries[i].child
	}
	buf := t.f.PageBuf()
	defer t.f.PutPageBuf(buf)
	if err := t.pool.ReadInto(t.f, pg, buf); err != nil {
		return rec, err
	}
	rec.Unmarshal(buf[rem*record.Size : (rem+1)*record.Size])
	return rec, nil
}
