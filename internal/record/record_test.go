package record

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	r := Record{Key: -42, Amount: 1 << 40, Seq: 7}
	for i := range r.Payload {
		r.Payload[i] = byte(i * 3)
	}
	buf := make([]byte, Size)
	if n := r.Marshal(buf); n != Size {
		t.Fatalf("Marshal returned %d, want %d", n, Size)
	}
	var got Record
	got.Unmarshal(buf)
	if got != r {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, r)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(key, amount int64, seq uint64, pay []byte) bool {
		r := Record{Key: key, Amount: amount, Seq: seq}
		copy(r.Payload[:], pay)
		buf := make([]byte, Size)
		r.Marshal(buf)
		var got Record
		got.Unmarshal(buf)
		return got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoord(t *testing.T) {
	r := Record{Key: 5, Amount: 9}
	if r.Coord(0) != 5 || r.Coord(1) != 9 {
		t.Fatalf("Coord mismatch: %d, %d", r.Coord(0), r.Coord(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Coord(2) should panic")
		}
	}()
	r.Coord(2)
}

func TestRangeBasics(t *testing.T) {
	r := Range{Lo: 10, Hi: 20}
	if r.Empty() {
		t.Fatal("non-empty range reported empty")
	}
	if !r.Contains(10) || !r.Contains(20) || r.Contains(9) || r.Contains(21) {
		t.Fatal("Contains boundaries wrong")
	}
	if !(Range{Lo: 5, Hi: 4}).Empty() {
		t.Fatal("inverted range should be empty")
	}
	if !FullRange().Contains(1<<63-1) || !FullRange().Contains(-1<<63) {
		t.Fatal("FullRange must contain domain extremes")
	}
}

func TestRangeOverlapContain(t *testing.T) {
	cases := []struct {
		a, b             Range
		overlaps, aContB bool
	}{
		{Range{0, 10}, Range{5, 15}, true, false},
		{Range{0, 10}, Range{10, 20}, true, false},
		{Range{0, 10}, Range{11, 20}, false, false},
		{Range{0, 10}, Range{2, 8}, true, true},
		{Range{0, 10}, Range{0, 10}, true, true},
		{Range{0, 10}, Range{5, 4}, false, true}, // empty contained in anything
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.overlaps {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.overlaps)
		}
		if got := c.a.ContainsRange(c.b); got != c.aContB {
			t.Errorf("%v contains %v = %v, want %v", c.a, c.b, got, c.aContB)
		}
	}
}

func TestRangeOverlapSymmetryProperty(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		r1 := Range{Lo: min(a, b), Hi: max(a, b)}
		r2 := Range{Lo: min(c, d), Hi: max(c, d)}
		// Overlap is symmetric, and containment implies overlap.
		if r1.Overlaps(r2) != r2.Overlaps(r1) {
			return false
		}
		if r1.ContainsRange(r2) && !r2.Empty() && !r1.Overlaps(r2) {
			return false
		}
		// Intersection is contained in both and non-empty iff overlapping.
		in := r1.Intersect(r2)
		if in.Empty() == r1.Overlaps(r2) {
			return false
		}
		return r1.ContainsRange(in) && r2.ContainsRange(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoxContainsRecord(t *testing.T) {
	b := Box2D(0, 100, 50, 60)
	in := Record{Key: 40, Amount: 55}
	outDim0 := Record{Key: 101, Amount: 55}
	outDim1 := Record{Key: 40, Amount: 61}
	if !b.ContainsRecord(&in) {
		t.Fatal("record inside box rejected")
	}
	if b.ContainsRecord(&outDim0) || b.ContainsRecord(&outDim1) {
		t.Fatal("record outside box accepted")
	}
}

func TestBoxOverlapContain(t *testing.T) {
	a := Box2D(0, 10, 0, 10)
	b := Box2D(5, 15, 5, 15)
	c := Box2D(11, 20, 0, 10) // disjoint in dim 0 only
	if !a.Overlaps(b) || a.Overlaps(c) {
		t.Fatal("2-d overlap wrong")
	}
	if !a.ContainsBox(Box2D(1, 2, 3, 4)) || a.ContainsBox(b) {
		t.Fatal("2-d containment wrong")
	}
	if !FullBox(2).ContainsBox(a) {
		t.Fatal("full box must contain everything")
	}
}

func TestBoxDimsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBox with 0 dims should panic")
		}
	}()
	NewBox()
}

func TestBoxWithDim(t *testing.T) {
	a := Box2D(0, 10, 0, 10)
	b := a.WithDim(1, Range{Lo: 3, Hi: 4})
	if a.Dim(1) != (Range{Lo: 0, Hi: 10}) {
		t.Fatal("WithDim mutated the original box")
	}
	if b.Dim(1) != (Range{Lo: 3, Hi: 4}) || b.Dim(0) != (Range{Lo: 0, Hi: 10}) {
		t.Fatalf("WithDim result wrong: %v", b)
	}
}

func TestBoxRandomRecordsProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		lo0, hi0 := rng.Int64N(1000), rng.Int64N(1000)
		lo1, hi1 := rng.Int64N(1000), rng.Int64N(1000)
		if lo0 > hi0 {
			lo0, hi0 = hi0, lo0
		}
		if lo1 > hi1 {
			lo1, hi1 = hi1, lo1
		}
		b := Box2D(lo0, hi0, lo1, hi1)
		r := Record{Key: rng.Int64N(1000), Amount: rng.Int64N(1000)}
		want := r.Key >= lo0 && r.Key <= hi0 && r.Amount >= lo1 && r.Amount <= hi1
		if b.ContainsRecord(&r) != want {
			t.Fatalf("ContainsRecord mismatch for %v in %v", r, b)
		}
	}
}

func TestStringForms(t *testing.T) {
	if got := (Range{Lo: 1, Hi: 2}).String(); got != "[1,2]" {
		t.Fatalf("Range.String = %q", got)
	}
	if got := (Range{Lo: 2, Hi: 1}).String(); got != "[empty]" {
		t.Fatalf("empty Range.String = %q", got)
	}
	if got := Box2D(1, 2, 3, 4).String(); got != "[1,2]x[3,4]" {
		t.Fatalf("Box.String = %q", got)
	}
}

func TestRangeWidth(t *testing.T) {
	if w := (Range{Lo: 5, Hi: 5}).Width(); w != 1 {
		t.Fatalf("width of a point range = %v", w)
	}
	if w := (Range{Lo: 6, Hi: 5}).Width(); w != 0 {
		t.Fatalf("width of an empty range = %v", w)
	}
	if w := (Range{Lo: 0, Hi: 9}).Width(); w != 10 {
		t.Fatalf("width = %v", w)
	}
}

func TestIntersectBox(t *testing.T) {
	a := Box2D(0, 10, 0, 10)
	b := Box2D(5, 15, -5, 5)
	in := a.IntersectBox(b)
	if in.Dim(0) != (Range{Lo: 5, Hi: 10}) || in.Dim(1) != (Range{Lo: 0, Hi: 5}) {
		t.Fatalf("intersection = %v", in)
	}
	disjoint := a.IntersectBox(Box2D(20, 30, 0, 10))
	if !disjoint.Empty() {
		t.Fatal("disjoint intersection should be empty")
	}
}

// TestBoxValueSemantics: a Box is a value — its ranges travel with it — so
// the deriving methods work on their own copy: neither the receiver, nor a
// box it was copied from, nor the argument is changed, whichever dimension
// is touched, and a copy compares equal to its original.
func TestBoxValueSemantics(t *testing.T) {
	other := Box2D(3, 7, -4, 4)
	r := Range{Lo: 1, Hi: 2}
	cases := []struct {
		name   string
		box    Box
		derive func(Box) Box
		want   Box
	}{
		{"WithDim 0 of 1-d", Box1D(0, 10), func(b Box) Box { return b.WithDim(0, r) }, Box1D(1, 2)},
		{"WithDim 0 of 2-d", Box2D(0, 10, 0, 10), func(b Box) Box { return b.WithDim(0, r) }, Box2D(1, 2, 0, 10)},
		{"WithDim 1 of 2-d", Box2D(0, 10, 0, 10), func(b Box) Box { return b.WithDim(1, r) }, Box2D(0, 10, 1, 2)},
		{"WithDim of full", FullBox(2), func(b Box) Box { return b.WithDim(1, r) }, NewBox(FullRange(), r)},
		{"IntersectBox", Box2D(0, 10, 0, 10), func(b Box) Box { return b.IntersectBox(other) }, Box2D(3, 7, 0, 4)},
		{"IntersectBox to empty", Box2D(0, 1, 0, 1), func(b Box) Box { return b.IntersectBox(other) }, Box2D(3, 1, 0, 1)},
		{"chained", Box2D(0, 10, 0, 10), func(b Box) Box { return b.WithDim(0, r).IntersectBox(other).WithDim(1, r) }, Box2D(3, 2, 1, 2)},
	}
	for _, tc := range cases {
		before, alias, arg := tc.box, tc.box, other
		got := tc.derive(alias)
		if got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		if alias != before || tc.box != before || other != arg {
			t.Errorf("%s: mutated an input: receiver %v (was %v), argument %v (was %v)", tc.name, alias, before, other, arg)
		}
	}
}

// TestAppendMatching: the matching kernel is AppendBatch followed by a
// filter — same records, same order, dst's own records untouched — for every
// shape of call the leaf decode makes.
func TestAppendMatching(t *testing.T) {
	const stored = 12
	src := make([]byte, stored*Size+7) // longer than any n*Size asked for
	for i := 0; i < stored; i++ {
		r := Record{Key: int64(i % 5), Amount: int64(i), Seq: uint64(100 + i)}
		r.Payload[0] = byte(i)
		r.Marshal(src[i*Size:])
	}
	held := []Record{{Key: -1, Seq: 1}, {Key: -2, Seq: 2}}
	roomy := append(make([]Record, 0, 64), held...)
	for _, b := range []Box{Box1D(1, 3), Box2D(1, 3, 4, 9), Box1D(9, 9), FullBox(1), FullBox(2), Box1D(3, 1)} {
		for _, n := range []int{0, 1, 5, stored} {
			for name, dst := range map[string][]Record{"nil": nil, "full": held[:2:2], "roomy": roomy} {
				want := append([]Record(nil), dst...)
				for _, r := range AppendBatch(nil, src, n) {
					if b.ContainsRecord(&r) {
						want = append(want, r)
					}
				}
				got := AppendMatching(dst, src, n, b)
				if len(got) != len(want) {
					t.Fatalf("%v n=%d dst=%s: %d records, want %d", b, n, name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v n=%d dst=%s: record %d is seq %d, want seq %d", b, n, name, i, got[i].Seq, want[i].Seq)
					}
				}
				if name == "roomy" && len(got) > 0 && &got[0] != &roomy[0] {
					t.Fatalf("%v n=%d: dst had room for the matches and was reallocated", b, n)
				}
			}
		}
	}
}
