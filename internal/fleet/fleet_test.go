package fleet

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"path/filepath"
	"testing"
	"time"

	"sampleview"
	"sampleview/internal/record"
	"sampleview/internal/server"
)

func genRecords(n int, seed uint64) []record.Record {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	const domain = 1 << 20
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			Key:    rng.Int64N(domain),
			Amount: rng.Int64N(domain),
			Seq:    uint64(i),
		}
	}
	return recs
}

// testFleet is a router fronting n in-process replicas, each serving a
// byte-identical copy of the same view (same records, same build seed —
// the replica-consistency invariant a real deployment gets from identical
// provisioning).
type testFleet struct {
	router   *Router
	addr     string
	repAddrs []string
	replicas []*server.Server
	views    []*sampleview.View
}

// startFleet builds the fleet. Replica i's server config comes from repCfg
// (shared); the router's from mutate, applied to a sane default.
func startFleet(t *testing.T, n int, recs []record.Record, repCfg server.Config, mutate func(*Config)) *testFleet {
	t.Helper()
	tf := &testFleet{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("replica%d.view", i))
		v, err := sampleview.CreateFromSlice(path, recs, sampleview.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		tf.views = append(tf.views, v)
		t.Cleanup(func() { v.Close() })

		cfg := repCfg
		cfg.ReplicaID = fmt.Sprintf("replica-%d", i)
		srv := server.New(cfg)
		srv.AddView("sale", v)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Shutdown)
		tf.replicas = append(tf.replicas, srv)
		addrs[i] = ln.Addr().String()
	}
	tf.repAddrs = addrs

	rcfg := Config{Replicas: addrs, Seed: 42}
	if mutate != nil {
		mutate(&rcfg)
	}
	router, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Connect(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve(ln)
	t.Cleanup(router.Shutdown)
	tf.router = router
	tf.addr = ln.Addr().String()
	return tf
}

func dialRouter(t *testing.T, tf *testFleet) *server.Client {
	t.Helper()
	cl, err := server.Dial(tf.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// drain pulls a remote stream to EOF.
func drain(t *testing.T, rs *server.RemoteStream) []record.Record {
	t.Helper()
	var out []record.Record
	for {
		rec, err := rs.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream failed after %d records: %v", len(out), err)
		}
		out = append(out, rec)
	}
}

// localSeeded is the determinism reference: the uninterrupted sequence a
// local seeded stream over the same view bytes produces.
func localSeeded(t *testing.T, v *sampleview.View, q record.Box, seed uint64) []record.Record {
	t.Helper()
	s, err := v.QuerySeeded(q, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out []record.Record
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

func sameRecords(a, b []record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFleetServesSeededStreamsByteIdentical: a seeded stream pulled
// through the router matches the local reference sequence record for
// record — the property every fleet mechanism (hedging, migration) rests
// on.
func TestFleetServesSeededStreamsByteIdentical(t *testing.T) {
	recs := genRecords(6000, 5)
	tf := startFleet(t, 2, recs, server.Config{MaxStreams: 64}, nil)
	cl := dialRouter(t, tf)
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	q := record.Box1D(0, 1<<19)
	const seed = 0xfeedbeef
	rs, err := rv.QueryAt(q, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rs)
	want := localSeeded(t, tf.views[0], q, seed)
	if len(want) == 0 {
		t.Fatal("reference sequence is empty; bad test setup")
	}
	if !sameRecords(got, want) {
		t.Fatalf("routed stream diverges from local reference: got %d records, want %d", len(got), len(want))
	}
}

// TestFleetTenantQuota: the router enforces the fleet-wide per-tenant
// stream cap across connections, while untenanted connections account
// separately.
func TestFleetTenantQuota(t *testing.T) {
	recs := genRecords(2000, 3)
	tf := startFleet(t, 2, recs, server.Config{MaxStreams: 64}, func(c *Config) {
		c.TenantStreams = 2
	})
	q := record.FullBox(1)

	c1, c2 := dialRouter(t, tf), dialRouter(t, tf)
	for _, c := range []*server.Client{c1, c2} {
		if err := c.SetTenant("acme"); err != nil {
			t.Fatal(err)
		}
	}
	v1, err := c1.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c2.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v1.Query(q); err != nil {
		t.Fatalf("stream 1: %v", err)
	}
	if _, err := v2.Query(q); err != nil {
		t.Fatalf("stream 2: %v", err)
	}
	_, err = v1.Query(q)
	if !server.IsAdmissionReject(err) {
		t.Fatalf("third stream of tenant at cap 2: got %v, want tenant admission reject", err)
	}
	se, ok := err.(*server.Error)
	if !ok || se.Code != server.CodeTenantStreams {
		t.Fatalf("rejection code = %v, want CodeTenantStreams", err)
	}

	// A different identity (per-connection fallback) is not constrained by
	// acme's exhausted cap.
	c3 := dialRouter(t, tf)
	v3, err := c3.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v3.Query(q); err != nil {
		t.Fatalf("untenanted connection rejected: %v", err)
	}

	snap, err := c3.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.RejectedTenant == 0 {
		t.Fatal("router snapshot shows no tenant-cap rejections")
	}
	if snap.TenantsActive == 0 {
		t.Fatal("router snapshot shows no active tenants")
	}
}

// TestFleetHedgedReads: with a hedge budget of zero-ish every pull races
// two replicas; the stream must still be byte-identical to the local
// reference, and the router must report the hedges.
func TestFleetHedgedReads(t *testing.T) {
	recs := genRecords(6000, 9)
	tf := startFleet(t, 2, recs, server.Config{MaxStreams: 64}, func(c *Config) {
		c.HedgeAfter = time.Nanosecond
	})
	cl := dialRouter(t, tf)
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	q := record.Box1D(0, 1<<19)
	const seed = 0x5eed
	rs, err := rv.QueryAt(q, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs.SetBatchSize(256)
	got := drain(t, rs)
	want := localSeeded(t, tf.views[0], q, seed)
	if !sameRecords(got, want) {
		t.Fatalf("hedged stream diverges from reference: got %d records, want %d", len(got), len(want))
	}
	snap, err := cl.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.HedgedReads == 0 {
		t.Fatal("no hedged reads recorded despite a nanosecond hedge budget")
	}
	if snap.ReplicasLive != 2 {
		t.Fatalf("ReplicasLive = %d, want 2", snap.ReplicasLive)
	}
}

// TestFleetWriteFanOut: appends through the router land on every replica,
// keeping them byte-identical — verified by pulling the same seeded
// stream directly from each replica after the write.
func TestFleetWriteFanOut(t *testing.T) {
	recs := genRecords(1000, 13)
	tf := startFleet(t, 2, recs, server.Config{MaxStreams: 64}, nil)
	cl := dialRouter(t, tf)
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	extra := genRecords(50, 99)
	n, err := rv.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(extra) {
		t.Fatalf("append acked %d of %d records", n, len(extra))
	}

	// Every replica must now serve the identical enlarged sequence: pull
	// the same seeded stream directly from each and compare byte for byte.
	q := record.FullBox(1)
	const seed = 0xabcd
	var ref []record.Record
	for i, addr := range tf.repAddrs {
		rc, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		rrv, err := rc.OpenView("sale")
		if err != nil {
			t.Fatal(err)
		}
		rrs, err := rrv.QueryAt(q, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, rrs)
		rc.Close()
		if len(got) != len(recs)+len(extra) {
			t.Fatalf("replica %d serves %d records after fan-out, want %d", i, len(got), len(recs)+len(extra))
		}
		if i == 0 {
			ref = got
			continue
		}
		if !sameRecords(got, ref) {
			t.Fatalf("replica %d diverged from replica 0 after write fan-out", i)
		}
	}
}
