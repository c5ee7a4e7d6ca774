package core

import (
	"errors"
	"fmt"

	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

// Verify performs a deep integrity check of the tree (an fsck): it reads
// every leaf sequentially and confirms that
//
//  1. every record of section i of leaf L lies inside the region of L's
//     level-i ancestor,
//  2. the directory's per-section counts match the leaf contents,
//  3. the total record count matches the header,
//  4. the per-node left/right counts stored in the split region equal the
//     counts recomputed from the records themselves, and
//  5. every page of every leaf passes its whole-page checksum and the
//     directory's per-section prefix checksums and key sketches equal
//     the ones recomputed from those pages (readLeaf).
//
// It costs a full scan of the leaf data region.
func (t *Tree) Verify() error {
	cntL := make([]int64, t.nLeaves)
	cntR := make([]int64, t.nLeaves)
	var total int64

	for leaf := int64(0); leaf < t.nLeaves; leaf++ {
		sections, err := t.readLeaf(leaf)
		if err != nil {
			return fmt.Errorf("core: verify: reading leaf %d: %w", leaf, err)
		}
		heapLeaf := t.nLeaves + leaf
		for sec := 0; sec < t.h; sec++ {
			if got, want := len(sections[sec]), int(t.leaves[leaf].secCounts[sec]); got != want {
				return fmt.Errorf("core: verify: leaf %d section %d holds %d records, directory says %d",
					leaf, sec+1, got, want)
			}
			box := t.nodeBox(heapLeaf >> uint(t.h-sec-1))
			for i := range sections[sec] {
				rec := &sections[sec][i]
				if !box.ContainsRecord(rec) {
					return fmt.Errorf("core: verify: leaf %d section %d record (seq %d) outside region %v",
						leaf, sec+1, rec.Seq, box)
				}
				// Recompute the full descent counts.
				node := int64(1)
				for level := 1; level < t.h; level++ {
					if rec.Coord(t.splitDim(level)) > t.splits[node] {
						cntR[node]++
						node = 2*node + 1
					} else {
						cntL[node]++
						node = 2 * node
					}
				}
				total++
			}
		}
	}
	if total != t.count {
		return fmt.Errorf("core: verify: leaves hold %d records, header says %d", total, t.count)
	}
	for i := int64(1); i < t.nLeaves; i++ {
		if cntL[i] != t.cntL[i] || cntR[i] != t.cntR[i] {
			return fmt.Errorf("core: verify: node %d counts (%d,%d) stored, (%d,%d) recomputed",
				i, t.cntL[i], t.cntR[i], cntL[i], cntR[i])
		}
	}
	// Data bounds must cover every stored coordinate (checked via the
	// level-1 region, which is unbounded, so check directly).
	if t.count > 0 {
		b := t.DataBounds()
		if b.Empty() {
			return fmt.Errorf("core: verify: non-empty tree with empty data bounds")
		}
	}
	return nil
}

// PageFault describes one page that failed checksum verification during
// FsckPages, located within the file's region layout.
type PageFault struct {
	// Page is the logical page index within the view file.
	Page int64
	// Region names the file region the page belongs to: "header", "splits",
	// "directory", "leaf" or "summaries" (prefix checksums and key sketches).
	Region string
	// Leaf is the ordinal of the owning leaf when Region is "leaf", else -1.
	Leaf int64
	// Sections lists the 1-based section numbers stored (at least partly) on
	// the page when Region is "leaf".
	Sections []int
	// Err is the underlying *pagefile.CorruptPageError (or read error).
	Err error
}

func (pf PageFault) String() string {
	switch pf.Region {
	case "leaf":
		return fmt.Sprintf("page %d: leaf %d sections %v: %v", pf.Page, pf.Leaf, pf.Sections, pf.Err)
	default:
		return fmt.Sprintf("page %d: %s region: %v", pf.Page, pf.Region, pf.Err)
	}
}

// FsckPages verifies the stored checksum of every page of the view file and
// maps each corrupt page to the tree region — and for leaf-data pages, the
// exact leaf and sections — it damages. Fault injection and retries are
// bypassed: this inspects what is actually on disk. The scan costs one
// sequential pass over the file.
func (t *Tree) FsckPages() ([]PageFault, error) {
	var faults []PageFault
	n := t.f.NumPages()
	for page := int64(0); page < n; page++ {
		err := t.f.CheckPage(page)
		if err == nil {
			continue
		}
		var cpe *pagefile.CorruptPageError
		if !errors.As(err, &cpe) {
			return faults, fmt.Errorf("core: fsck: page %d: %w", page, err)
		}
		faults = append(faults, t.locatePage(page, err))
	}
	return faults, nil
}

// locatePage maps a logical page index to the region (and leaf/sections)
// that own it.
func (t *Tree) locatePage(page int64, err error) PageFault {
	pf := PageFault{Page: page, Leaf: -1, Err: err}
	switch {
	case page < t.splitStart():
		pf.Region = "header"
		return pf
	case page < t.dirStart():
		pf.Region = "splits"
		return pf
	case page < t.leafDataStart():
		pf.Region = "directory"
		return pf
	case page >= t.sumStart():
		pf.Region = "summaries"
		return pf
	}
	pf.Region = "leaf"
	// Leaves are laid out in ordinal order; find the last leaf whose first
	// page is <= page.
	lo, hi := int64(0), t.nLeaves-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.leaves[mid].firstPage <= page {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	pf.Leaf = lo
	m := &t.leaves[lo]
	// Records [first, last) of the leaf live on this page; sections are
	// stored contiguously in section order.
	perPage := int64(t.f.PageSize() / record.Size)
	first := (page - m.firstPage) * perPage
	last := first + perPage
	if total := m.totalRecords(); last > total {
		last = total
	}
	off := int64(0)
	for s := 0; s < t.h; s++ {
		cnt := int64(m.secCounts[s])
		if off < last && off+cnt > first {
			pf.Sections = append(pf.Sections, s+1)
		}
		off += cnt
	}
	return pf
}

// SectionHistogram returns, per section number (1-based index 0..h-1),
// the total number of records stored in that section across all leaves.
// Construction assigns sections uniformly, so the histogram should be
// nearly flat; sv inspect prints it.
func (t *Tree) SectionHistogram() []int64 {
	hist := make([]int64, t.h)
	for i := range t.leaves {
		for s, c := range t.leaves[i].secCounts {
			hist[s] += int64(c)
		}
	}
	return hist
}
