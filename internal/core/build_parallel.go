package core

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"

	"sampleview/internal/pagefile"
	"sampleview/internal/par"
	"sampleview/internal/record"
)

// The construction pipeline, the one path every build runs at any worker
// count. Both stages follow the same recipe for keeping the built file and
// its simulated cost independent of the worker count:
//
//   - Work is cut at fixed, worker-count-independent boundaries (blocks of
//     source pages for tagging, ranges of leaves for rendering).
//   - All randomness is pre-drawn in one pass over the seeded PCG stream,
//     in record order, so every record receives the same (section, leaf)
//     assignment whichever worker tags it.
//   - Workers hand their output to a single collector that writes blocks
//     in order; only one goroutine ever touches the output file.
//
// Each block charges its reads to a clock forked per block
// (iosim.Sim.Fork), so the simulated construction cost is also independent
// of how blocks are scheduled over workers.

const (
	// tagBlockPages is how many source pages one tagging task covers. The
	// boundary is fixed (not derived from the worker count) so per-block
	// clock forks charge the same simulated I/O at any parallelism.
	tagBlockPages = 64
	// leafTaskLeaves is how many consecutive leaves one rendering task
	// covers. With the expected leaf size of about one page this keeps a
	// task's output buffer around tagBlockPages pages.
	leafTaskLeaves = 64
)

// tagAcc accumulates the statistics one tagging worker gathers; the merged
// result is deterministic because sums, minima and maxima commute.
type tagAcc struct {
	cntL, cntR []int64
	min, max   []int64
	secCounts  []int32 // [leaf*h + section]
}

// assignTags scans src over a worker pool, draws the section and leaf
// assignment for every record, accumulates the exact per-node left/right
// counts, the data bounds and the directory's per-section counts, and
// returns the tagged temporary file with items in source order (Figure 9
// of the paper). The section counts let writeLeafData locate every leaf in
// the sorted file before it is written.
func (t *Tree) assignTags(src *pagefile.ItemFile, seed uint64, workers int) (_ *pagefile.ItemFile, err error) {
	n := src.Count()
	h := t.h
	sim := t.f.Sim()

	// Pre-draw the randomness in record order: record i draws its section
	// with IntN(h) and its leaf offset with Int64N(2^(h-s)), whose modulus
	// depends only on the section draw.
	rng := rand.New(rand.NewPCG(seed, seed^0xace7ace7ace7ace7))
	sVals := make([]uint8, n)
	uVals := make([]int64, n)
	for i := int64(0); i < n; i++ {
		s := 1 + rng.IntN(h)
		sVals[i] = uint8(s)
		uVals[i] = rng.Int64N(int64(1) << uint(h-s))
	}

	t.leaves = newLeafMetas(t.nLeaves, h)
	tagged := pagefile.NewItemFile(pagefile.NewMem(sim), taggedSize)
	defer closeOnError(tagged, &err)
	if n == 0 {
		return tagged, nil
	}

	blockItems := int64(tagBlockPages * src.PerPage())
	nblocks := int((n + blockItems - 1) / blockItems)
	jobs := make(chan int, nblocks)
	outs := make([]chan []byte, nblocks)
	for k := range outs {
		outs[k] = make(chan []byte, 1)
	}

	var fail par.First
	var wg sync.WaitGroup
	accs := make([]*tagAcc, workers)
	for w := 0; w < workers; w++ {
		acc := &tagAcc{
			cntL:      make([]int64, t.nLeaves),
			cntR:      make([]int64, t.nLeaves),
			min:       make([]int64, t.dims),
			max:       make([]int64, t.dims),
			secCounts: make([]int32, t.nLeaves*int64(h)),
		}
		for d := 0; d < t.dims; d++ {
			acc.min[d] = 1<<63 - 1
			acc.max[d] = -1 << 63
		}
		accs[w] = acc
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec record.Record
			path := make([]int64, h+1)
			for k := range jobs {
				if fail.Failed() {
					outs[k] <- nil
					continue
				}
				lo := int64(k) * blockItems
				hi := min(lo+blockItems, n)
				r := src.OnClock(sim.Fork()).NewReaderBurst(lo, tagBlockPages)
				out := make([]byte, 0, (hi-lo)*taggedSize)
				var tagBuf [8]byte
				for i := lo; i < hi; i++ {
					item, err := r.Next()
					if err != nil {
						fail.Set(err)
						break
					}
					rec.Unmarshal(item)
					for d := 0; d < t.dims; d++ {
						c := rec.Coord(d)
						if c < acc.min[d] {
							acc.min[d] = c
						}
						if c > acc.max[d] {
							acc.max[d] = c
						}
					}
					node := int64(1)
					path[1] = 1
					for level := 1; level < h; level++ {
						if rec.Coord(t.splitDim(level)) > t.splits[node] {
							acc.cntR[node]++
							node = 2*node + 1
						} else {
							acc.cntL[node]++
							node = 2 * node
						}
						path[level+1] = node
					}
					s := int(sVals[i])
					ancestor := path[s]
					leavesBelow := int64(1) << uint(h-s)
					firstLeaf := (ancestor - int64(1)<<uint(s-1)) * leavesBelow
					leaf := firstLeaf + uVals[i]
					acc.secCounts[leaf*int64(h)+int64(s-1)]++
					binary.LittleEndian.PutUint64(tagBuf[:], makeTag(leaf, s-1))
					out = append(out, tagBuf[:]...)
					out = append(out, item...)
				}
				if fail.Failed() {
					outs[k] <- nil
					continue
				}
				outs[k] <- out
			}
		}()
	}

	// Collector: feed jobs a bounded distance ahead of the block being
	// written, so at most ~2*workers blocks are in flight.
	ahead := min(nblocks, 2*workers)
	for k := 0; k < ahead; k++ {
		jobs <- k
	}
	next := ahead
	w := tagged.NewWriter()
	var werr error
	for k := 0; k < nblocks; k++ {
		out := <-outs[k]
		if next < nblocks {
			jobs <- next
			next++
		}
		if out == nil || werr != nil {
			continue
		}
		for off := 0; off < len(out); off += taggedSize {
			if err := w.Write(out[off : off+taggedSize]); err != nil {
				werr = err
				break
			}
		}
	}
	close(jobs)
	wg.Wait()
	if err := fail.Err(); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}

	for _, acc := range accs {
		for i := int64(1); i < t.nLeaves; i++ {
			t.cntL[i] += acc.cntL[i]
			t.cntR[i] += acc.cntR[i]
		}
		for d := 0; d < t.dims; d++ {
			if acc.min[d] < t.dataMin[d] {
				t.dataMin[d] = acc.min[d]
			}
			if acc.max[d] > t.dataMax[d] {
				t.dataMax[d] = acc.max[d]
			}
		}
		for leaf := int64(0); leaf < t.nLeaves; leaf++ {
			for s := 0; s < h; s++ {
				t.leaves[leaf].secCounts[s] += acc.secCounts[leaf*int64(h)+int64(s)]
			}
		}
	}
	return tagged, nil
}

// writeLeafData renders the leaf data region from the (leaf,
// section)-sorted tagged file with a worker pool, page-aligning each leaf.
// The section counts gathered during tagging determine every leaf's item
// range and disk location up front, so tasks over disjoint leaf ranges are
// independent; a single collector appends the rendered pages in order.
func (t *Tree) writeLeafData(sorted *pagefile.ItemFile, workers int) error {
	perPage := int64(t.f.PageSize() / record.Size)
	ps := t.f.PageSize()
	sim := t.f.Sim()

	itemOff := make([]int64, t.nLeaves+1) // first sorted-file item of each leaf
	pageOff := make([]int64, t.nLeaves+1) // first data page (region-relative)
	for i := int64(0); i < t.nLeaves; i++ {
		total := t.leaves[i].totalRecords()
		itemOff[i+1] = itemOff[i] + total
		pageOff[i+1] = pageOff[i] + ceilDiv(total, perPage)
	}
	if itemOff[t.nLeaves] != sorted.Count() {
		return fmt.Errorf("core: section counts cover %d records, sorted file holds %d",
			itemOff[t.nLeaves], sorted.Count())
	}
	dataStart := t.f.NumPages()
	for i := int64(0); i < t.nLeaves; i++ {
		if t.leaves[i].totalRecords() == 0 {
			// Leaves that received no records point at the end of the
			// file.
			t.leaves[i].firstPage = dataStart + pageOff[t.nLeaves]
		} else {
			t.leaves[i].firstPage = dataStart + pageOff[i]
		}
	}

	ntasks := int(ceilDiv(t.nLeaves, leafTaskLeaves))
	jobs := make(chan int, ntasks)
	outs := make([]chan []byte, ntasks)
	for k := range outs {
		outs[k] = make(chan []byte, 1)
	}

	var fail par.First
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				if fail.Failed() {
					outs[k] <- nil
					continue
				}
				loLeaf := int64(k) * leafTaskLeaves
				hiLeaf := min(loLeaf+leafTaskLeaves, t.nLeaves)
				// make zeroes the buffer, which doubles as the padding of
				// every leaf's trailing partial page.
				out := make([]byte, (pageOff[hiLeaf]-pageOff[loLeaf])*int64(ps))
				r := sorted.OnClock(sim.Fork()).NewReaderAt(itemOff[loLeaf])
				var err error
				for leaf := loLeaf; leaf < hiLeaf && err == nil; leaf++ {
					base := (pageOff[leaf] - pageOff[loLeaf]) * int64(ps)
					for i := int64(0); i < itemOff[leaf+1]-itemOff[leaf]; i++ {
						var item []byte
						item, err = r.Next()
						if err != nil {
							break
						}
						if gotLeaf, _ := splitTag(binary.LittleEndian.Uint64(item[:8])); gotLeaf != leaf {
							err = fmt.Errorf("core: record for leaf %d found in leaf %d's range", gotLeaf, leaf)
							break
						}
						page := i / perPage
						slot := i % perPage
						copy(out[base+page*int64(ps)+slot*record.Size:], item[8:])
					}
					m := &t.leaves[leaf]
					for p := int64(0); p < pageOff[leaf+1]-pageOff[leaf]; p++ {
						t.sealPage(leaf, p, out[base+p*int64(ps):][:ps], m.secCRC, m.sketch)
					}
				}
				if err != nil {
					fail.Set(err)
					outs[k] <- nil
					continue
				}
				outs[k] <- out
			}
		}()
	}

	ahead := min(ntasks, 2*workers)
	for k := 0; k < ahead; k++ {
		jobs <- k
	}
	next := ahead
	var werr error
	for k := 0; k < ntasks; k++ {
		out := <-outs[k]
		if next < ntasks {
			jobs <- next
			next++
		}
		if out == nil || werr != nil {
			continue
		}
		for off := 0; off < len(out); off += ps {
			if _, err := t.f.Append(out[off : off+ps]); err != nil {
				werr = err
				break
			}
		}
	}
	close(jobs)
	wg.Wait()
	if err := fail.Err(); err != nil {
		return err
	}
	return werr
}
