package main

import (
	"path/filepath"
	"strings"
	"testing"

	"sampleview"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/workload"
)

func TestCheckerFlagsEachViolation(t *testing.T) {
	recs := genRecords(2000, 1)
	bySeq := make(map[uint64]record.Record, len(recs))
	for _, r := range recs {
		bySeq[r.Seq] = r
	}
	source := func(seq uint64) (record.Record, bool) {
		r, ok := bySeq[seq]
		return r, ok
	}
	q := record.Box1D(0, workload.KeyDomain/2)
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

	for _, tc := range []struct {
		name   string
		stream []record.Record
		want   string // "" = clean
	}{
		{"clean", inside, ""},
		{"not in the source", append(inside[1:10:10], altered), "not in the source"},
		{"unknown seq", []record.Record{{Key: 1, Seq: writeSeqBase}}, "not in the source"},
		{"outside the predicate", outside[:1], "outside the predicate"},
		{"duplicate seq", append(inside[:10:10], inside[3]), "duplicate seq"},
	} {
		ck := newChecker(q, source)
		ck.add(tc.stream...)
		if tc.want == "" {
			if len(ck.bad) > 0 {
				t.Fatalf("%s: flagged %v", tc.name, ck.bad)
			}
			p, ok := uniformity(ck.hist)
			if !ok || p < uniformityAlpha {
				t.Fatalf("%s: uniformity gate p=%g tested=%v over %d records", tc.name, p, ok, len(tc.stream))
			}
			continue
		}
		if len(ck.bad) != 1 || !strings.Contains(ck.bad[0], tc.want) {
			t.Fatalf("%s: flagged %v, want one %q", tc.name, ck.bad, tc.want)
		}
	}
}

func TestRecoveryVerifierFlagsPhantom(t *testing.T) {
	base := genRecords(2000, 2)
	known := make(map[uint64]record.Record, len(base))
	for _, r := range base {
		known[r.Seq] = r
	}
	v, err := sampleview.CreateFromSlice(filepath.Join(t.TempDir(), "v.view"), base, sampleview.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	none := map[uint64]struct{}{}

	var d crashDrill
	verifyRecovered(&d, v, known, nil, none, none)
	if len(d.errs) > 0 || !d.pvalid || d.recovered != len(base) {
		t.Fatalf("clean view: errs %v, p valid %v, recovered %d of %d", d.errs, d.pvalid, d.recovered, len(base))
	}

	// A record the drill never issued surfaces after "recovery".
	phantom := record.Record{Key: 7, Amount: 7, Seq: writeSeqBase}
	if err := v.Insert(phantom); err != nil {
		t.Fatal(err)
	}
	d = crashDrill{}
	verifyRecovered(&d, v, known, nil, none, none)
	if len(d.errs) != 1 || !strings.Contains(d.errs[0], "not in the source") {
		t.Fatalf("phantom: errs %v, want one naming seq %d", d.errs, phantom.Seq)
	}

	// An acknowledged write the view no longer serves is lost.
	d = crashDrill{}
	known[phantom.Seq] = phantom
	lost := record.Record{Key: 8, Seq: writeSeqBase + 1}
	verifyRecovered(&d, v, known, map[uint64]record.Record{lost.Seq: lost}, none, none)
	if len(d.errs) != 1 || !strings.Contains(d.errs[0], "lost across the cut") {
		t.Fatalf("lost ack: errs %v", d.errs)
	}
}

// TestConnectSmoke drives -connect's readers and writers against a server
// started here, at smoke scale.
func TestConnectSmoke(t *testing.T) {
	v, err := sampleview.CreateFromSlice(filepath.Join(t.TempDir(), "sale.view"), genRecords(2000, 3), sampleview.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	srv := server.New(server.Config{})
	srv.AddView("sale", v)
	addr, err := serveLoopback(srv.Serve)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	nextWriteSeq.Store(writeSeqBase)
	if !runConnect(traffic{addr: addr, view: "sale", clients: 2, ops: 3, samples: 500, batch: 64, ingest: 2, seed: 3, writeSeed: 3}) {
		t.Fatal("-connect run violated the contract")
	}
}
