// This file is a copy of the pattern-defeating quicksort of Go 1.24's
// slices.SortFunc (slices/zsortanyfunc.go), specialised to the sorter's
// 16-byte pairs and ordered by key alone.
//
// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found at https://go.dev/LICENSE.

package extsort

import (
	"math/bits"
	"sync"
)

// forkLen is the shortest range whose recursive sort is offered to an idle
// worker: below it a goroutine costs more than it would save.
const forkLen = 1 << 13

// sortPairs orders data by key exactly as slices.SortFunc with cmp.Compare
// on the keys would: every decision below depends only on comparison results
// and range lengths, never on timing. Recursive calls on long ranges run on
// workers the crew has idle. Sibling ranges are disjoint, and the one element
// a range reads outside itself, data[a-1], is a pivot placed before the range
// was handed out and never moved again, so the result is the same at every
// worker count. A nil crew sorts inline.
func sortPairs(data []pair, cw crew) {
	var wg sync.WaitGroup
	pdqsort(data, 0, len(data), bits.Len(uint(len(data))), cw, &wg)
	wg.Wait()
}

type sortedHint int

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// insertionSort sorts data[a:b].
func insertionSort(data []pair, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && data[j].key < data[j-1].key; j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDown implements the heap property on data[lo:hi]; first is the offset
// of the heap's root in data.
func siftDown(data []pair, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && data[first+child].key < data[first+child+1].key {
			child++
		}
		if !(data[first+root].key < data[first+child].key) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSort(data []pair, a, b int) {
	first := a
	lo := 0
	hi := b - a
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDown(data, i, hi, first)
	}
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDown(data, lo, i, first)
	}
}

// pdqsort sorts data[a:b]; limit is the number of very unbalanced pivots
// allowed before falling back to heapsort.
func pdqsort(data []pair, a, b, limit int, cw crew, wg *sync.WaitGroup) {
	const maxInsertion = 12
	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)
	for {
		length := b - a
		if length <= maxInsertion {
			insertionSort(data, a, b)
			return
		}
		if limit == 0 {
			heapSort(data, a, b)
			return
		}
		if !wasBalanced {
			breakPatterns(data, a, b)
			limit--
		}
		pivot, hint := choosePivot(data, a, b)
		if hint == decreasingHint {
			reverseRange(data, a, b)
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSort(data, a, b) {
				return
			}
		}
		// Many duplicates: split off the elements equal to the pivot.
		if a > 0 && !(data[a-1].key < data[pivot].key) {
			a = partitionEqual(data, a, b, pivot)
			continue
		}
		mid, alreadyPartitioned := partition(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned
		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			sortRange(data, a, mid, limit, cw, wg)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			sortRange(data, mid+1, b, limit, cw, wg)
			b = mid
		}
	}
}

// sortRange is pdqsort's recursive call: on an idle worker if the range is
// long and one is free, inline otherwise.
func sortRange(data []pair, a, b, limit int, cw crew, wg *sync.WaitGroup) {
	if b-a < forkLen || !cw.lend(wg, func() { pdqsort(data, a, b, limit, cw, wg) }) {
		pdqsort(data, a, b, limit, cw, wg)
	}
}

// partition moves data[a:b] around p = data[pivot] so that data[i] < p for
// i < newpivot and data[j] >= p for j > newpivot, with data[newpivot] = p.
func partition(data []pair, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // inclusive bounds of what is left to partition
	for i <= j && data[i].key < data[a].key {
		i++
	}
	for i <= j && !(data[j].key < data[a].key) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--
	for {
		for i <= j && data[i].key < data[a].key {
			i++
		}
		for i <= j && !(data[j].key < data[a].key) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqual splits data[a:b], which holds nothing below data[pivot],
// into the elements equal to it followed by the greater ones.
func partitionEqual(data []pair, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1
	for {
		for i <= j && !(data[a].key < data[i].key) {
			i++
		}
		for i <= j && data[a].key < data[j].key {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSort partially sorts data[a:b] and reports whether it is
// sorted at the end.
func partialInsertionSort(data []pair, a, b int) bool {
	const (
		maxSteps         = 5  // adjacent out-of-order pairs that will be shifted
		shortestShifting = 50 // no shifting on shorter ranges
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(data[i].key < data[i-1].key) {
			i++
		}
		if i == b {
			return true
		}
		if b-a < shortestShifting {
			return false
		}
		data[i], data[i-1] = data[i-1], data[i]
		// Shift the smaller one to the left. As in the original the loop's
		// bound is 1, not a: it stops at data[a-1] at the latest, a pivot no
		// greater than anything in the range.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(data[j].key < data[j-1].key) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(data[j].key < data[j-1].key) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatterns scatters a few elements of data[a:b] with a generator seeded
// by the length, to break patterns that make partitions unbalanced.
func breakPatterns(data []pair, a, b int) {
	length := b - a
	if length >= 8 {
		random := uint64(length) // a xorshift generator
		modulus := uint(1) << bits.Len(uint(length))
		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			random ^= random << 13
			random ^= random >> 7
			random ^= random << 17
			other := int(uint(random) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivot picks a pivot in data[a:b]: a fixed one below 8 elements, the
// median of three below 50, Tukey's ninther above.
func choosePivot(data []pair, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)
	l := b - a
	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)
	if l >= 8 {
		if l >= shortestNinther {
			i = median(data, i-1, i, i+1, &swaps)
			j = median(data, j-1, j, j+1, &swaps)
			k = median(data, k-1, k, k+1, &swaps)
		}
		j = median(data, i, j, k, &swaps)
	}
	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2 returns x, y with data[x] <= data[y], where x, y is a, b or b, a.
func order2(data []pair, a, b int, swaps *int) (int, int) {
	if data[b].key < data[a].key {
		*swaps++
		return b, a
	}
	return a, b
}

// median returns whichever of a, b, c holds the median of the three.
func median(data []pair, a, b, c int, swaps *int) int {
	a, b = order2(data, a, b, swaps)
	b, c = order2(data, b, c, swaps)
	_, b = order2(data, a, b, swaps)
	return b
}

func reverseRange(data []pair, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
