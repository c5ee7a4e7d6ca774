// Package rtree implements the paper's two-dimensional baseline (Section
// VIII, Experiment 2): an R-Tree bulk-loaded with the Sort-Tile-Recursive
// (STR) algorithm of Leutenegger et al., used as a primary index over
// (DAY, AMOUNT) points, with subtree record counts in every internal entry
// and an Antoshenkov-style random sampler on top.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"sampleview/internal/extsort"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

const (
	magic = uint64(0x5356525452454531) // "SVRTREE1"

	nodeHeaderSize = 8  // nentries uint32, level uint32
	entrySize      = 48 // mbr 4x int64, child int64, count int64
)

// mbr is a closed 2-d bounding rectangle.
type mbr struct {
	loX, hiX, loY, hiY int64
}

func (m mbr) box() record.Box { return record.Box2D(m.loX, m.hiX, m.loY, m.hiY) }

func (m mbr) extend(o mbr) mbr {
	return mbr{
		loX: min(m.loX, o.loX), hiX: max(m.hiX, o.hiX),
		loY: min(m.loY, o.loY), hiY: max(m.hiY, o.hiY),
	}
}

func pointMBR(r *record.Record) mbr {
	return mbr{loX: r.Key, hiX: r.Key, loY: r.Amount, hiY: r.Amount}
}

// entry is one internal-node slot.
type entry struct {
	rect  mbr
	child int64
	count int64
}

// Tree is an STR-packed R-Tree over records interpreted as (Key, Amount)
// points.
type Tree struct {
	f        *pagefile.File
	pool     *pagefile.Pool
	items    *pagefile.ItemFile
	count    int64
	rootPage int64
	height   int // internal levels; 0 for an empty tree
}

// Build bulk-loads an R-Tree over the records of src into dst, which must
// be an empty page file, using memPages pages of sort memory.
func Build(dst *pagefile.File, src *pagefile.ItemFile, pool *pagefile.Pool, memPages int) (*Tree, error) {
	if dst.NumPages() != 0 {
		return nil, fmt.Errorf("rtree: destination file is not empty")
	}
	if src.ItemSize() != record.Size {
		return nil, fmt.Errorf("rtree: source item size %d is not a record", src.ItemSize())
	}
	if err := pagefile.WriteHeader(dst, magic, 0, 0, 0); err != nil {
		return nil, err
	}
	sim := dst.Sim()

	// STR step 1: sort all records by x (Key).
	byX := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	defer byX.File().Close()
	if err := extsort.Sort(byX, src, dimKey(0), memPages, 1); err != nil {
		return nil, fmt.Errorf("rtree: x-sort: %w", err)
	}

	n := byX.Count()
	items := pagefile.NewItemFile(dst, record.Size)
	t := &Tree{f: dst, pool: pool, items: items, count: n}
	if n == 0 {
		return t, pagefile.WriteHeader(dst, magic, 0, 0, 0)
	}

	// STR step 2: cut the x-order into ceil(sqrt(P)) vertical slabs, sort
	// each slab by y, and pack page-sized leaves.
	perPage := int64(items.PerPage())
	leaves := (n + perPage - 1) / perPage
	slabs := int64(math.Ceil(math.Sqrt(float64(leaves))))
	slabRecs := ((n + slabs - 1) / slabs / perPage) * perPage
	if slabRecs == 0 {
		slabRecs = perPage
	}

	w := items.NewWriter()
	var leafEntries []entry
	var cur mbr
	var curCount int64
	var rec record.Record
	flushLeaf := func() error {
		if curCount == 0 {
			return nil
		}
		// The page index the records just written will occupy.
		page := items.StartPage() + int64(len(leafEntries))
		leafEntries = append(leafEntries, entry{rect: cur, child: page, count: curCount})
		curCount = 0
		return nil
	}
	for lo := int64(0); lo < n; lo += slabRecs {
		hi := min(lo+slabRecs, n)
		slab, err := copyRange(sim, byX, lo, hi)
		if err != nil {
			return nil, err
		}
		byY := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
		err = extsort.Sort(byY, slab, dimKey(1), memPages, 1)
		slab.File().Close()
		if err != nil {
			return nil, fmt.Errorf("rtree: y-sort: %w", err)
		}
		r := byY.NewReader()
		for i := lo; i < hi; i++ {
			item, err := r.Next()
			if err != nil {
				return nil, err
			}
			rec.Unmarshal(item)
			if curCount == 0 {
				cur = pointMBR(&rec)
			} else {
				cur = cur.extend(pointMBR(&rec))
			}
			curCount++
			if err := w.Write(item); err != nil {
				return nil, err
			}
			if curCount == perPage {
				if err := flushLeaf(); err != nil {
					return nil, err
				}
			}
		}
		// Leaves never span slabs: flush a partial leaf at the slab edge.
		if curCount > 0 {
			if err := w.Flush(); err != nil { // pad to the page boundary
				return nil, err
			}
			if err := flushLeaf(); err != nil {
				return nil, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}

	if err := t.buildInternalLevels(leafEntries); err != nil {
		return nil, err
	}
	return t, pagefile.WriteHeader(dst, magic, t.count, t.rootPage, int64(t.height))
}

// Open opens a tree previously written by Build.
func Open(f *pagefile.File, pool *pagefile.Pool) (*Tree, error) {
	var count, root, height int64
	if err := pagefile.ReadHeader(f, magic, &count, &root, &height); err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	items, err := pagefile.OpenItemFile(f, record.Size, 1, count)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	return &Tree{
		f:        f,
		pool:     pool,
		items:    items,
		count:    count,
		rootPage: root,
		height:   int(height),
	}, nil
}

// dimKey is the sort key of coordinate d: Key and Amount lead the encoded
// record as consecutive signed 64-bit integers.
func dimKey(d int) extsort.Key { return extsort.Key{Offset: d * 8, Signed: true} }

// copyRange copies items [lo, hi) of src into a fresh in-memory item file.
func copyRange(sim *iosim.Sim, src *pagefile.ItemFile, lo, hi int64) (*pagefile.ItemFile, error) {
	dst := pagefile.NewItemFile(pagefile.NewMem(sim), src.ItemSize())
	w := dst.NewWriter()
	r := src.NewReaderAt(lo)
	for i := lo; i < hi; i++ {
		item, err := r.Next()
		if err != nil {
			return nil, err
		}
		if err := w.Write(item); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return dst, nil
}

// buildInternalLevels packs entries into internal nodes with STR tiling on
// entry centers until a single root remains.
func (t *Tree) buildInternalLevels(entries []entry) error {
	fanout := (t.f.PageSize() - nodeHeaderSize) / entrySize
	level := 1
	for {
		tiled := strTile(entries, fanout)
		var parents []entry
		page := make([]byte, t.f.PageSize())
		for lo := 0; lo < len(tiled); lo += fanout {
			hi := min(lo+fanout, len(tiled))
			group := tiled[lo:hi]
			for i := range page {
				page[i] = 0
			}
			binary.LittleEndian.PutUint32(page[0:4], uint32(len(group)))
			binary.LittleEndian.PutUint32(page[4:8], uint32(level))
			rect := group[0].rect
			var total int64
			for i, e := range group {
				off := nodeHeaderSize + i*entrySize
				binary.LittleEndian.PutUint64(page[off:off+8], uint64(e.rect.loX))
				binary.LittleEndian.PutUint64(page[off+8:off+16], uint64(e.rect.hiX))
				binary.LittleEndian.PutUint64(page[off+16:off+24], uint64(e.rect.loY))
				binary.LittleEndian.PutUint64(page[off+24:off+32], uint64(e.rect.hiY))
				binary.LittleEndian.PutUint64(page[off+32:off+40], uint64(e.child))
				binary.LittleEndian.PutUint64(page[off+40:off+48], uint64(e.count))
				rect = rect.extend(e.rect)
				total += e.count
			}
			pg, err := t.f.Append(page)
			if err != nil {
				return err
			}
			parents = append(parents, entry{rect: rect, child: pg, count: total})
		}
		if len(parents) == 1 {
			t.rootPage = parents[0].child
			t.height = level
			return nil
		}
		entries = parents
		level++
	}
}

// strTile orders entries by STR tiling on their centers: slabs by x-center,
// then y-center within each slab, so that groups of fanout consecutive
// entries have compact rectangles.
func strTile(entries []entry, fanout int) []entry {
	out := make([]entry, len(entries))
	copy(out, entries)
	nodes := (len(out) + fanout - 1) / fanout
	slabs := int(math.Ceil(math.Sqrt(float64(nodes))))
	slabLen := ((len(out)+slabs-1)/slabs + fanout - 1) / fanout * fanout
	if slabLen == 0 {
		slabLen = fanout
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rect.loX+out[i].rect.hiX < out[j].rect.loX+out[j].rect.hiX })
	for lo := 0; lo < len(out); lo += slabLen {
		hi := min(lo+slabLen, len(out))
		s := out[lo:hi]
		sort.Slice(s, func(i, j int) bool { return s[i].rect.loY+s[i].rect.hiY < s[j].rect.loY+s[j].rect.hiY })
	}
	return out
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
			rect: mbr{
				loX: int64(binary.LittleEndian.Uint64(buf[off : off+8])),
				hiX: int64(binary.LittleEndian.Uint64(buf[off+8 : off+16])),
				loY: int64(binary.LittleEndian.Uint64(buf[off+16 : off+24])),
				hiY: int64(binary.LittleEndian.Uint64(buf[off+24 : off+32])),
			},
			child: int64(binary.LittleEndian.Uint64(buf[off+32 : off+40])),
			count: int64(binary.LittleEndian.Uint64(buf[off+40 : off+48])),
		}
	}
	return entries, level, nil
}

// Count returns the number of records in the tree.
func (t *Tree) Count() int64 { return t.count }

// Height returns the number of internal levels.
func (t *Tree) Height() int { return t.height }
