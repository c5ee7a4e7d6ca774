package kary

import (
	"io"

	"sampleview/internal/record"
)

// Stream answers a range query over a k-ary ACE tree with the round-robin
// shuttle of Section III-D and the same park-and-append combine rule as
// the binary tree: a section batch is emitted once every level-s node
// range intersecting the query has contributed a batch, which for a k-ary
// tree means waiting for up to k stabs per level instead of two.
type Stream struct {
	t *Tree
	q record.Range

	next      []int // per-node round-robin counter, indexed by global node id
	remaining []int // per-node unread leaves (leaves included at the tail)

	required [][]int // per section: level-s node ids (within level) overlapping q
	buckets  []map[int][][]record.Record

	out     []record.Record
	outHead int
	emitted int64
	appends int64
	leaves  int64
	done    bool
}

// nodeID flattens (level l in 1..h, index j) to a global id.
func (t *Tree) nodeID(l, j int) int {
	id := 0
	for i := 1; i < l; i++ {
		id += pow(t.k, i-1)
	}
	return id + j
}

func (t *Tree) totalNodes() int {
	n := 0
	for l := 1; l <= t.h; l++ {
		n += pow(t.k, l-1)
	}
	return n
}

// Query starts a sampling stream for q.
func (t *Tree) Query(q record.Range) *Stream {
	s := &Stream{
		t:         t,
		q:         q,
		next:      make([]int, t.totalNodes()),
		remaining: make([]int, t.totalNodes()),
		buckets:   make([]map[int][][]record.Record, t.h),
		required:  make([][]int, t.h),
	}
	for l := 1; l <= t.h; l++ {
		for j := 0; j < pow(t.k, l-1); j++ {
			s.remaining[t.nodeID(l, j)] = pow(t.k, t.h-l)
		}
	}
	for sec := 0; sec < t.h; sec++ {
		s.buckets[sec] = make(map[int][][]record.Record)
		for j, r := range t.ranges[sec] {
			if r.Overlaps(q) {
				s.required[sec] = append(s.required[sec], j)
			}
		}
	}
	if t.count == 0 || q.Empty() {
		s.done = true
	}
	return s
}

// Emitted returns how many sample records have been produced.
func (s *Stream) Emitted() int64 { return s.emitted }

// LeavesRead returns how many leaves have been retrieved.
func (s *Stream) LeavesRead() int64 { return s.leaves }

// Appends returns how many combined (appended) batch groups have been
// emitted; sections whose range covers the whole query do not count.
func (s *Stream) Appends() int64 { return s.appends }

// Done reports whether all leaves have been read and output drained.
func (s *Stream) Done() bool { return s.done && s.outHead >= len(s.out) }

// Next returns the next sample record or io.EOF.
func (s *Stream) Next() (record.Record, error) {
	for s.outHead >= len(s.out) {
		if s.done {
			return record.Record{}, io.EOF
		}
		if _, err := s.NextLeaf(); err != nil && err != io.EOF {
			return record.Record{}, err
		}
	}
	rec := s.out[s.outHead]
	s.outHead++
	return rec, nil
}

// NextLeaf performs one stab and returns the number of records emitted.
func (s *Stream) NextLeaf() (int, error) {
	if s.done {
		return 0, io.EOF
	}
	t := s.t
	// Shuttle: descend with round-robin among eligible children.
	j := 0
	path := make([]int, t.h+1)
	for l := 1; l < t.h; l++ {
		path[l] = j
		base := j * t.k
		// Eligible = child with unread leaves; prefer overlapping ones.
		anyOverlap := false
		for c := 0; c < t.k; c++ {
			child := base + c
			if s.remaining[t.nodeID(l+1, child)] > 0 && t.ranges[l][child].Overlaps(s.q) {
				anyOverlap = true
				break
			}
		}
		id := t.nodeID(l, j)
		chosen := -1
		for tries := 0; tries < t.k; tries++ {
			c := s.next[id] % t.k
			s.next[id]++
			child := base + c
			if s.remaining[t.nodeID(l+1, child)] == 0 {
				continue
			}
			if anyOverlap && !t.ranges[l][child].Overlaps(s.q) {
				continue
			}
			chosen = child
			break
		}
		if chosen == -1 {
			// All overlapping children done: take any undone child.
			for c := 0; c < t.k; c++ {
				if s.remaining[t.nodeID(l+1, base+c)] > 0 {
					chosen = base + c
					break
				}
			}
		}
		j = chosen
	}
	path[t.h] = j

	// Mark the path.
	for l := 1; l <= t.h; l++ {
		s.remaining[t.nodeID(l, path[l])]--
	}
	s.leaves++
	if s.remaining[t.nodeID(1, 0)] == 0 {
		s.done = true
	}

	// Combine.
	sections, err := t.readLeaf(j)
	if err != nil {
		return 0, err
	}
	emitted := 0
	for sec := 0; sec < t.h; sec++ {
		rng := t.ranges[sec][path[sec+1]]
		if !rng.Overlaps(s.q) {
			continue
		}
		var batch []record.Record
		for i := range sections[sec] {
			if s.q.Contains(sections[sec][i].Key) {
				batch = append(batch, sections[sec][i])
			}
		}
		if rng.ContainsRange(s.q) {
			s.out = append(s.out, batch...)
			emitted += len(batch)
			continue
		}
		s.buckets[sec][path[sec+1]] = append(s.buckets[sec][path[sec+1]], batch)
		for {
			ready := true
			for _, idx := range s.required[sec] {
				if len(s.buckets[sec][idx]) == 0 {
					ready = false
					break
				}
			}
			if !ready {
				break
			}
			for _, idx := range s.required[sec] {
				q := s.buckets[sec][idx]
				s.out = append(s.out, q[0]...)
				emitted += len(q[0])
				s.buckets[sec][idx] = q[1:]
			}
			s.appends++
		}
	}
	s.emitted += int64(emitted)
	return emitted, nil
}
