package main

import (
	"path/filepath"
	"strings"
	"testing"

	"sampleview"
	"sampleview/internal/oracle"
	"sampleview/internal/record"
	"sampleview/internal/server"
)

func TestRecoveryVerifierFlagsPhantom(t *testing.T) {
	base := genRecords(2000, 2)
	v, err := sampleview.CreateFromSlice(filepath.Join(t.TempDir(), "v.view"), base, sampleview.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	var d crashDrill
	verifyRecovered(&d, v, oracle.NewModel(base))
	if len(d.errs) > 0 || !d.uniform.Tested || d.recovered != len(base) {
		t.Fatalf("clean view: errs %v, uniformity %+v, recovered %d of %d", d.errs, d.uniform, d.recovered, len(base))
	}

	// A record the drill never issued surfaces after "recovery".
	phantom := record.Record{Key: 7, Amount: 7, Seq: writeSeqBase}
	if err := v.Insert(phantom); err != nil {
		t.Fatal(err)
	}
	d = crashDrill{}
	verifyRecovered(&d, v, oracle.NewModel(base))
	if len(d.errs) != 1 || !strings.Contains(d.errs[0], "phantom") {
		t.Fatalf("phantom: errs %v, want one naming seq %d", d.errs, phantom.Seq)
	}

	// An acknowledged write the view no longer serves is lost.
	d = crashDrill{}
	m := oracle.NewModel(base)
	lost := record.Record{Key: 8, Seq: writeSeqBase + 1}
	m.Write(phantom, lost)
	verifyRecovered(&d, v, m)
	if len(d.errs) != 1 || !strings.Contains(d.errs[0], "missing from a drained stream") {
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
