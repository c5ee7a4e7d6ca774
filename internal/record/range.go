package record

import "fmt"

// Range is a closed interval [Lo, Hi] over one key dimension. A Range with
// Lo > Hi is empty.
type Range struct {
	Lo, Hi int64
}

// FullRange returns the range covering the entire int64 key domain, the
// paper's (-inf, +inf).
func FullRange() Range {
	return Range{Lo: -1 << 63, Hi: 1<<63 - 1}
}

// Empty reports whether the range contains no keys.
func (r Range) Empty() bool { return r.Lo > r.Hi }

// Contains reports whether key k falls inside the range.
func (r Range) Contains(k int64) bool { return k >= r.Lo && k <= r.Hi }

// ContainsRange reports whether o is entirely inside r. An empty o is
// contained in everything.
func (r Range) ContainsRange(o Range) bool {
	if o.Empty() {
		return true
	}
	return r.Lo <= o.Lo && o.Hi <= r.Hi
}

// Overlaps reports whether r and o share at least one key.
func (r Range) Overlaps(o Range) bool {
	return !r.Empty() && !o.Empty() && r.Lo <= o.Hi && o.Lo <= r.Hi
}

// Intersect returns the intersection of r and o (possibly empty).
func (r Range) Intersect(o Range) Range {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return Range{Lo: lo, Hi: hi}
}

// Width returns the number of distinct keys in the range as a float64 (the
// int64 domain overflows uint64 arithmetic only for the full range, which is
// handled explicitly).
func (r Range) Width() float64 {
	if r.Empty() {
		return 0
	}
	return float64(r.Hi) - float64(r.Lo) + 1
}

func (r Range) String() string {
	if r.Empty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi)
}

// Box is an axis-aligned query region over up to NumDims dimensions. A
// one-dimensional range query is a Box with a single dimension. A Box is a
// plain value: copying one copies its ranges, and no method mutates its
// receiver. The zero value is not valid (it is Empty); construct boxes with
// NewBox, Box1D or Box2D.
type Box struct {
	dims [NumDims]Range
	n    int
}

// NewBox returns a box over the given per-dimension ranges. It panics if
// dims is empty or has more than NumDims entries, which indicates programmer
// error at view-definition time.
func NewBox(dims ...Range) Box {
	if len(dims) == 0 || len(dims) > NumDims {
		panic(fmt.Sprintf("record: box must have 1..%d dimensions, got %d", NumDims, len(dims)))
	}
	b := Box{n: len(dims)}
	copy(b.dims[:], dims)
	return b
}

// Box1D returns a one-dimensional box over [lo, hi] on the Key attribute.
func Box1D(lo, hi int64) Box { return NewBox(Range{Lo: lo, Hi: hi}) }

// Box2D returns a two-dimensional box over the Key and Amount attributes.
func Box2D(keyLo, keyHi, amtLo, amtHi int64) Box {
	return NewBox(Range{Lo: keyLo, Hi: keyHi}, Range{Lo: amtLo, Hi: amtHi})
}

// FullBox returns the box covering the whole domain in ndims dimensions.
func FullBox(ndims int) Box {
	var dims [NumDims]Range
	for i := range dims {
		dims[i] = FullRange()
	}
	return NewBox(dims[:ndims]...)
}

// Dims returns the number of dimensions of the box.
func (b Box) Dims() int { return b.n }

// Dim returns the range of dimension d.
func (b Box) Dim(d int) Range { return b.dims[:b.n][d] }

// WithDim returns a copy of b with dimension d replaced by r.
func (b Box) WithDim(d int, r Range) Box {
	b.dims[:b.n][d] = r
	return b
}

// Empty reports whether any dimension of the box is empty.
func (b Box) Empty() bool {
	for _, r := range b.dims[:b.n] {
		if r.Empty() {
			return true
		}
	}
	return b.n == 0
}

// ContainsRecord reports whether the record's coordinates fall inside the
// box in every dimension.
func (b Box) ContainsRecord(rec *Record) bool {
	for d, r := range b.dims[:b.n] {
		if !r.Contains(rec.Coord(d)) {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o lies entirely inside b. The boxes must have
// the same dimensionality.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	for d, r := range b.dims[:b.n] {
		if !r.ContainsRange(o.dims[d]) {
			return false
		}
	}
	return true
}

// IntersectBox returns the per-dimension intersection of b and o, which
// must have the same dimensionality.
func (b Box) IntersectBox(o Box) Box {
	for d := range b.dims[:b.n] {
		b.dims[d] = b.dims[d].Intersect(o.dims[d])
	}
	return b
}

// Overlaps reports whether b and o intersect. The boxes must have the same
// dimensionality.
func (b Box) Overlaps(o Box) bool {
	if b.Empty() || o.Empty() {
		return false
	}
	for d, r := range b.dims[:b.n] {
		if !r.Overlaps(o.dims[d]) {
			return false
		}
	}
	return true
}

func (b Box) String() string {
	s := ""
	for i, r := range b.dims[:b.n] {
		if i > 0 {
			s += "x"
		}
		s += r.String()
	}
	return s
}
