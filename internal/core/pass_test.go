package core

import (
	"io"
	"slices"
	"testing"
	"time"
	"unsafe"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// TestDrainPassBound holds the drain pass to its price and its ski-rental
// bound on the seeded 200k-record view (one-page leaves on 64 KiB pages, as
// in svsuite's scan-local). Each 0.25% drain is drawn 100 records at a time
// beside the same stream kept to its stabs: at every cut the stream may have
// been charged at most 1 + 1/z times what the stabs were, z its own buy
// point, plus one random read (overBound), and at the end no more than they
// were. At every stab after the listing the stream's fit, left and price
// are what checkListed recomputes, and the pass is bought at the first stab
// the rule allows (weighChecked). The clock
// moves across every pass by exactly its price, the cheapest walk the rule
// allows (cheapestPass), with one random read for the first fetch and one
// per gap seeked over; the drains seek over a gap and cross one at least
// once each. Streams closed at 1,024 samples of more matches, as svsuite's
// latency ops are, never reach the pass and are charged exactly as the
// stabs. A stream that takes the pass on recycled scratch holds its records
// in the buffer the stream before it left.
func TestDrainPassBound(t *testing.T) {
	tree, _ := seededView(t)
	sim := tree.f.Sim()
	random := sim.Model().RandomRead
	seeks, crosses := 0, 0
	qg := workload.NewQueryGen(45)
	open := func(q record.Box, stay bool) (*Stream, *iosim.Clock) {
		ck := sim.Fork()
		s, err := tree.WithClock(ck).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		s.weighed = stay
		return s, ck
	}
	passes, reused := 0, 0
	var held *record.Record
	heldCap := -1
	for range 12 {
		q := qg.Range1D(0.0025)
		s, ck := open(q, false)
		stay, cs := open(q, true)
		var got, want []record.Record
		for cut := 0; ; cut++ {
			var err error
			for len(s.queued()) < 100 && !s.done {
				if weighDue(t, s) {
					cold, seeked, crossed := weighChecked(t, s, ck)
					if s.passed && !cold {
						t.Fatalf("%v: the pass found the head where its first fetch begins", q)
					}
					seeks, crosses = seeks+seeked, crosses+crossed
				}
				if _, err := s.NextLeaf(); err != nil && err != io.EOF {
					t.Fatal(err)
				}
			}
			if got, err = s.AppendNext(got[:0], 100); err != nil {
				t.Fatal(err)
			}
			if want, err = stay.AppendNext(want[:0], 100); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v cut %d: %d records, kept to its stabs %d", q, cut, len(got), len(want))
			}
			if overBound(s, ck.Now(), cs.Now(), random) {
				t.Fatalf("%v cut %d: charged %v, the stabs %v: over 1 + 1/%.3f times theirs plus a random read", q, cut, ck.Now(), cs.Now(), s.z)
			}
			if len(got) < 100 {
				break
			}
		}
		if ck.Now() > cs.Now() {
			t.Fatalf("%v: a drain charged %v, its stabs %v", q, ck.Now(), cs.Now())
		}
		if s.passed {
			passes++
			// A buffer grows to the largest bound it met, and is kept after.
			if at := unsafe.SliceData(s.held); cap(s.held) == heldCap {
				if at != held {
					t.Fatalf("%v: the pass held its records in a new buffer of the recycled one's size", q)
				}
				reused++
			}
			held, heldCap = unsafe.SliceData(s.held), cap(s.held)
		}
		t.Logf("%v: passed %v, charged %v, its stabs %v", q, s.passed, ck.Now(), cs.Now())
		s.Close()
		stay.Close()
	}
	if passes < 6 || reused == 0 || seeks == 0 || crosses == 0 {
		t.Fatalf("%d of 12 drains took the pass, %d in a recycled buffer, %d gaps seeked over and %d crossed; the bound was barely tested", passes, reused, seeks, crosses)
	}
	t.Logf("%d passes seeked over %d gaps and crossed %d", passes, seeks, crosses)
	for _, sel := range []float64{0.025, 0.25} {
		q := qg.Range1D(sel)
		s, ck := open(q, false)
		stay, cs := open(q, true)
		got, err := s.AppendNext(nil, 1024)
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		want, err := stay.AppendNext(nil, 1024)
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if len(got) != 1024 || len(want) != 1024 || s.passed || ck.Now() != cs.Now() || ck.Counters() != cs.Counters() {
			t.Fatalf("%v: 1,024 samples charged %v %+v (passed %v), the stabs %v %+v", q, ck.Now(), ck.Counters(), s.passed, cs.Now(), cs.Counters())
		}
	}
}

// siblingBackend serves the seeded view's pages and, when sib is set,
// charges sib a read of every page it serves: a sibling stream's I/O on the
// same Sim, landing in the middle of each stab.
type siblingBackend struct {
	*countingBackend
	sib *iosim.Clock
}

func (b siblingBackend) ReadPage(i int64, off int, dst []byte) error {
	if b.sib != nil {
		b.sib.ReadPage(0, i)
	}
	return b.countingBackend.ReadPage(i, off, dst)
}

// TestStabTimeOnItsOwnClock: a stream opened without a clock of its own
// prices its stabs on its file's clock, the Sim's shared clock, which no
// charge to a fork of the Sim moves. An unclocked 0.25% drain over the
// seeded view, on a fresh Sim each time, reads the same stabTime, the same
// records and the same pass decision whether or not a sibling fork is
// charged a read beside each of its page reads.
func TestStabTimeOnItsOwnClock(t *testing.T) {
	tree, cb := seededView(t)
	q := workload.NewQueryGen(45).Range1D(0.0025)
	drain := func(sibling bool) (*Stream, []record.Record, *iosim.Clock) {
		sim := iosim.New(tree.f.Sim().Model())
		b := siblingBackend{countingBackend: cb}
		if sibling {
			b.sib = sim.Fork()
		}
		v := *tree
		v.f = pagefile.NewOn(sim, b)
		s, err := v.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		recs := drainAll(t, s)
		s.Close()
		return s, recs, b.sib
	}
	alone, want, _ := drain(false)
	beside, got, sib := drain(true)
	if sib.Now() == 0 || !alone.weighed {
		t.Fatalf("%v: the sibling was charged %v and the drain weighed its pass %v; the test shows nothing", q, sib.Now(), alone.weighed)
	}
	if beside.stabTime != alone.stabTime || beside.passed != alone.passed || !slices.Equal(got, want) {
		t.Fatalf("%v: beside a sibling charged %v, the stabs were priced %v (passed %v, %d records); alone %v (passed %v, %d records)",
			q, sib.Now(), beside.stabTime, beside.passed, len(got), alone.stabTime, alone.passed, len(want))
	}
	t.Logf("%v: stabs priced %v, passed %v, %d records; the sibling was charged %v", q, alone.stabTime, alone.passed, len(want), sib.Now())
}

// overBound reports whether a stream s, charged charged where its twin kept
// to its stabs was charged stabs, broke the pass's contract: more than
// 1 + 1/z times the stabs plus one random read, z the stream's buy point.
// The pass is bought at stabs of z times its price, rounded down to the
// nanosecond, so its price is at most (stabs + 1ns)/z.
func overBound(s *Stream, charged, stabs, random time.Duration) bool {
	return s.z*float64(charged-stabs-random) > float64(stabs)+1
}

// zShare is z times d, rounded down to the nanosecond: the share of the
// scan cost at which s lists and of the price at which it buys.
func zShare(s *Stream, d time.Duration) time.Duration {
	return time.Duration(s.z * float64(d))
}

// unreadInside is how many of the records in the query's contained leaf
// regions s can have left unread: the guard that keeps s from listing while
// it is over maxKeepRecords, where no pass could hold them.
func unreadInside(s *Stream) int64 { return s.inside - s.emitted - int64(s.buffered) }

// weighDue reports whether s's next NextLeaf would weigh its pass: s has
// listed its leaves and not decided. It fails t if the stabs reached z times
// half the scan cost with no more than maxKeepRecords records inside left
// unread, and s listed nothing, as it must right after the read that got
// there.
func weighDue(t *testing.T, s *Stream) bool {
	t.Helper()
	if !s.done && !s.weighed && len(s.listed) == 0 && s.stabTime >= zShare(s, s.t.scanTime/2) && unreadInside(s) <= maxKeepRecords {
		t.Fatalf("%v: the stabs were charged %v, z = %.3f of half the scan is %v, %d records inside are unread, and nothing is listed",
			s.q, s.stabTime, s.z, zShare(s, s.t.scanTime/2), unreadInside(s))
	}
	return !s.done && !s.pending && !s.weighed && len(s.listed) != 0
}

// weighChecked weighs s's pass where its next NextLeaf would (weighDue),
// measuring it on s's clock ck, and holds it to the rule. The listing must
// have waited for z times half the scan cost and for no more than
// maxKeepRecords records inside to be unread, and its fit, left and price
// must be what checkListed recomputes. The floor weigh tests before the replay may
// never exceed the listed leaves' stabs (stabCost), or it would take a pass
// the replay declines. The pass is decided exactly at the first stab
// where its matches fit maxKeepRecords and the stabs have been charged z
// times its price (left is paid with or without the pass, so it is no part of the
// rent), and taken exactly when price + left is no more than the
// listed leaves' stabs; it is declined for good where nothing is
// left for it to fetch (price 0). A pass must be charged its price, with one
// random read for the first fetch and one per gap seeked over — or, where the
// stab before it left the head on the first fetch's page (warm), one seek
// and one random read less. It reports whether the pass started cold and the
// gaps it seeked over and crossed.
func weighChecked(t *testing.T, s *Stream, ck *iosim.Clock) (cold bool, seeks, crosses int) {
	t.Helper()
	m := s.t.f.Sim().Model()
	seek := m.RandomRead - m.SequentialRead
	if s.stabTime < zShare(s, s.t.scanTime/2) || unreadInside(s) > maxKeepRecords {
		t.Fatalf("%v: listed at stab charges of %v, z = %.3f of half the scan is %v, with %d records inside unread",
			s.q, s.stabTime, s.z, zShare(s, s.t.scanTime/2), unreadInside(s))
	}
	price, seeks, crosses, fit, left := checkListed(t, s)
	due := fit <= maxKeepRecords && s.stabTime >= zShare(s, price)
	var stabs time.Duration
	if price > 0 {
		if stabs = s.stabCost(); s.floor() > stabs {
			t.Fatalf("%v: the floor %v is over the listed leaves' stabs %v", s.q, s.floor(), stabs)
		}
	}
	at, reads := ck.Now(), ck.Counters().RandomReads
	s.weigh()
	charged, random := ck.Now()-at, ck.Counters().RandomReads-reads
	takes := due && price > 0 && price+left <= stabs
	if s.weighed != (due || price == 0) || s.passed != takes || !s.passed && charged != 0 {
		t.Fatalf("%v: decided %v, passed %v (charged %v), at stabs of %v against z = %.3f of a pass of %v plus %v left to stabs (the stabs to come %v), %d matches",
			s.q, s.weighed, s.passed, charged, s.stabTime, s.z, price, left, stabs, fit)
	}
	if !s.passed {
		return false, 0, 0
	}
	cold = charged == price && random == int64(1+seeks)
	if !cold && (charged != price-seek || random != int64(seeks)) {
		t.Fatalf("%v: the pass was charged %v in %d random reads, priced %v with %d seeks", s.q, charged, random, price, seeks)
	}
	return cold, seeks, crosses
}

// checkListed recomputes, from scratch, what s's listing prices while s
// weighs its pass, and fails t unless s kept the same fit, left and price:
// over the listed leaves no stab has reached, fit is the sum of their
// bounds, left a cold stab of each the fault plan can touch, and price the
// cheapest pass over the others (cheapestPass). The need s kept of each leaf
// no stab has reached and the bound of each such listed one must be theirs.
func checkListed(t *testing.T, s *Stream) (price time.Duration, seeks, crosses, fit int, left time.Duration) {
	t.Helper()
	tree := s.t
	price, seeks, crosses = cheapestPass(s)
	for leaf := range tree.nLeaves {
		if need, _ := s.need(leaf, s.reach(leaf)); s.remaining[tree.nLeaves+leaf] != 0 && s.needs[leaf] != need {
			t.Fatalf("%v: leaf %d kept need %#x, its need is %#x", s.q, leaf, s.needs[leaf], need)
		}
	}
	for i, leaf := range s.listed {
		if s.heldAt[leaf] >= 0 {
			continue
		}
		_, bound := s.need(leaf, s.reach(leaf))
		if int(s.walk[i].bound) != bound {
			t.Fatalf("%v: listed leaf %d kept bound %d, its bound is %d", s.q, leaf, s.walk[i].bound, bound)
		}
		fit += bound
		lm := &tree.leaves[leaf]
		if end := tree.leafEnd(lm); !tree.f.Quiet(lm.firstPage, end) {
			left += tree.f.Sim().ScanCost(end - lm.firstPage)
		}
	}
	if s.price != price || s.fit != fit || s.left != left {
		t.Fatalf("%v: the listing kept price %v, fit %d and left %v; recomputed, %v, %d and %v", s.q, s.price, s.fit, s.left, price, fit, left)
	}
	return price, seeks, crosses, fit, left
}

// cheapestPass prices s's pass as its rule states it, without faults: of the
// listed leaves no stab has reached and the fault plan cannot touch, the
// first is fetched by a random read, and each later one after a gap from the
// end of the one before, crossed by sequential transfers where that costs
// less than the seek a random read adds, seeked over otherwise; a fetch
// transfers every page of its leaf. It also counts the gaps seeked over and
// those crossed.
func cheapestPass(s *Stream) (price time.Duration, seeks, crosses int) {
	m := s.t.f.Sim().Model()
	seek := m.RandomRead - m.SequentialRead
	head := int64(-1)
	for _, leaf := range s.listed {
		lm := &s.t.leaves[leaf]
		end := s.t.leafEnd(lm)
		if s.heldAt[leaf] >= 0 || !s.t.f.Quiet(lm.firstPage, end) {
			continue
		}
		switch gap := time.Duration(lm.firstPage-head) * m.SequentialRead; {
		case head < 0:
			price += seek
		case gap >= seek:
			price += seek
			seeks++
		case gap > 0:
			price += gap
			crosses++
		}
		price += time.Duration(end-lm.firstPage) * m.SequentialRead
		head = end
	}
	return price, seeks, crosses
}
