package oracle

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"sampleview/internal/record"
)

const domain = 1 << 20

func relation(n int, seed uint64) []record.Record {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: rng.Int64N(domain), Amount: rng.Int64N(domain), Seq: uint64(i)}
	}
	return recs
}

// TestCheckerFlagsEachViolation is the checker's negative-case table: each
// stream breaks the contract once and is flagged exactly once, by name.
func TestCheckerFlagsEachViolation(t *testing.T) {
	recs := relation(2000, 1)
	q := record.Box1D(0, domain/2)
	var inside, outside []record.Record
	for _, r := range recs {
		if q.ContainsRecord(&r) {
			inside = append(inside, r)
		} else {
			outside = append(outside, r)
		}
	}
	altered := inside[0]
	altered.Amount++
	write := record.Record{Key: 5, Seq: 1 << 40}

	for _, tc := range []struct {
		name    string
		stream  []record.Record
		drained bool
		want    string // "" = clean
	}{
		{"clean drain", inside, true, ""},
		{"altered record", append(inside[1:10:10], altered), false, "phantom or altered"},
		{"unknown seq", []record.Record{{Key: 1, Seq: 1 << 41}}, false, "phantom or altered"},
		{"outside the predicate", outside[:1], false, "outside the predicate"},
		{"duplicate seq", append(inside[:10:10], inside[3]), false, "duplicate seq"},
		{"missing acked write", inside, true, "missing from a drained stream"},
		{"missing match", inside[1:], true, "missing from a drained stream"},
	} {
		m := NewModel(recs)
		if strings.Contains(tc.name, "acked") {
			m.Write(write)
		}
		ck := NewChecker()
		s := ck.Stream(m, q)
		s.Add(tc.stream...)
		if tc.drained {
			s.Drained()
		}
		bad := ck.Violations()
		if tc.want == "" {
			if err := ck.Err(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			continue
		}
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Fatalf("%s: flagged %v, want one %q", tc.name, bad, tc.want)
		}
	}
}

// TestModelTracksWrites: acked writes join the population, tombstones
// leave it, and a write in flight may be served or not.
func TestModelTracksWrites(t *testing.T) {
	recs := relation(100, 2)
	m := NewModel(recs)
	w := []record.Record{{Key: 3, Seq: 500}, {Key: 4, Seq: 501}}
	m.Write(w[0])
	m.Pending(w[1], recs[0])
	m.Delete(recs[1])
	full := record.FullBox(1)
	if got := len(m.Shuffle(full, 1)); got != 101 {
		t.Fatalf("%d matches, want 100 base - 1 deleted + 2 writes", got)
	}
	for _, served := range [][]record.Record{
		append([]record.Record{w[0]}, recs[2:]...),        // without either pending record
		append([]record.Record{w[0], w[1]}, recs[0:1]...), // with both, short of the rest
	} {
		ck := NewChecker()
		s := ck.Stream(m, full)
		s.Add(served...)
		if len(served) > 10 {
			s.Drained()
		}
		if bad := ck.Violations(); len(bad) != 0 {
			t.Fatalf("flagged %v", bad)
		}
	}
	ck := NewChecker()
	ck.Stream(m, full).Add(recs[1])
	if bad := ck.Violations(); len(bad) != 1 {
		t.Fatalf("a tombstoned record served: flagged %v, want one", bad)
	}
	ck = NewChecker()
	ck.Stream(nil, record.Box1D(0, 10)).Add(record.Record{Key: 5, Seq: 1}, record.Record{Key: 50, Seq: 2})
	if bad := ck.Violations(); len(bad) != 1 || !strings.Contains(bad[0], "outside") {
		t.Fatalf("unknown relation: flagged %v, want the predicate alone", bad)
	}
}

// TestShufflePassesAndSkewFails: the reference stream passes at every cut;
// a stream leaning 4% toward the low half of the ranks at cut 1000, the
// lean the root path shows, fails there and only there.
func TestShufflePassesAndSkewFails(t *testing.T) {
	recs := relation(8000, 3)
	m := NewModel(recs)
	q := record.Box1D(0, domain/4)
	fair, skew := NewChecker(), NewChecker()
	for b := range uint64(60) {
		ref := m.Shuffle(q, b)
		s := fair.Stream(m, q)
		s.Add(ref...)
		s.Drained()

		// Swap 20 high-half records at positions 100..999 for low-half ones
		// from after 1000: the first 1000 hold 4% more low ranks than their
		// share, and the first 100 are untouched.
		lean := append([]record.Record(nil), ref...)
		keys := make([]int64, len(ref))
		for i := range ref {
			keys[i] = ref[i].Key
		}
		slices.Sort(keys)
		mid := keys[len(keys)/2]
		for i, j, moved := 100, 1000, 0; moved < 20; {
			for lean[i].Key < mid {
				i++
			}
			for lean[j].Key >= mid {
				j++
			}
			lean[i], lean[j] = lean[j], lean[i]
			moved++
		}
		s = skew.Stream(m, q)
		s.Add(lean...)
		s.Drained()
	}
	if err := fair.Err(); err != nil {
		t.Fatalf("the reference stream fails: %v", err)
	}
	if vs := fair.Verdicts(); len(vs) != 4 || !vs[0].Tested || vs[0].N != 60 || vs[3].N != 60_000 {
		t.Fatalf("verdicts %+v", vs)
	}
	for _, v := range skew.Verdicts() {
		if rejected := v.Tested && v.P < Alpha; rejected != (v.Cut == 1000) {
			t.Fatalf("skewed stream: cut %d p=%g over %d records", v.Cut, v.P, v.N)
		}
	}
}

func TestVerdictMergesSparseCells(t *testing.T) {
	m := NewModel(relation(1000, 4))
	ck := NewChecker(1)
	for b := range uint64(12) {
		ck.Stream(m, record.FullBox(1)).Add(m.Shuffle(record.FullBox(1), b)[0])
	}
	if v := ck.Verdicts()[0]; !v.Tested || v.N != 12 {
		t.Fatalf("12 records at cut 1: %+v, want a two-cell test", v)
	}
	ck = NewChecker(1)
	ck.Stream(m, record.FullBox(1)).Add(m.Shuffle(record.FullBox(1), 1)[0])
	if v := ck.Verdicts()[0]; v.Tested || v.P != 1 {
		t.Fatalf("one record: %+v, want untested", v)
	}
}
