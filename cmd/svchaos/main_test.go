package main

import (
	"path/filepath"
	"testing"

	"sampleview"
	"sampleview/internal/server"
)

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
