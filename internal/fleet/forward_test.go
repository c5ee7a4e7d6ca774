package fleet

import (
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"sampleview/internal/record"
	"sampleview/internal/server"
)

// fixedSource is a replica view whose streams lend the same 256 records
// forever and allocate nothing, so what a routed pull allocates is the
// serving path's own: replica session, router leg, router session, client.
type fixedSource struct{ batch []record.Record }

func (f fixedSource) Dims() int                                 { return 1 }
func (f fixedSource) Height() int                               { return 1 }
func (f fixedSource) Count() int64                              { return 1 << 30 }
func (f fixedSource) EstimateCount(record.Box) (float64, error) { return 1 << 30, nil }
func (f fixedSource) SimNow() time.Duration                     { return 0 }
func (f fixedSource) OpenStream(record.Box) (server.ViewStream, error) {
	return fixedStream(f), nil
}
func (f fixedSource) OpenStreamSeeded(record.Box, uint64) (server.ViewStream, error) {
	return fixedStream(f), nil
}

type fixedStream fixedSource

func (f fixedStream) Sample(n int) ([]record.Record, error) {
	return f.batch[:min(n, len(f.batch))], nil
}
func (f fixedStream) Close() error          { return nil }
func (f fixedStream) SimNow() time.Duration { return 0 }

// TestRouterForwardsBatchesUndecoded is the router's allocation gate: a
// routed FNextBatch round trip — client, router session, router leg, replica
// session, all in this process — allocates the one record slice the client
// returns. A router that decoded the replica's batch (one more record slice)
// or re-encoded it (one more body) would at least double the bytes; the
// records the client decodes are nonetheless the replica's, under the
// client's own stream id.
func TestRouterForwardsBatchesUndecoded(t *testing.T) {
	batch := genRecords(256, 9)
	rep := server.New(server.Config{ReplicaID: "replica-0"})
	rep.AddSource("sale", fixedSource{batch})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rep.Serve(rln)
	t.Cleanup(rep.Shutdown)
	router, err := New(Config{Replicas: []string{rln.Addr().String()}, Seed: 1})
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

	cl, err := server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	// Two streams, so the second's client-side id differs from the id its
	// replica leg (a connection of its own) was given.
	first, err := rv.Query(record.Box1D(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	s, err := rv.Query(record.Box1D(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pull := func() {
		got, err := s.NextBatch()
		if err != nil || len(got) != len(batch) {
			t.Fatalf("routed pull: %d records, %v", len(got), err)
		}
		for i := range got {
			if got[i] != batch[i] {
				t.Fatalf("record %d of a forwarded batch differs from what the replica sent", i)
			}
		}
	}
	for i := 0; i < 8; i++ {
		pull() // connection and leg buffers reach their size
	}
	const pulls = 200
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pulls; i++ {
		pull()
	}
	runtime.ReadMemStats(&after)
	perPull := float64(after.TotalAlloc-before.TotalAlloc) / pulls
	slice := float64(256 * unsafe.Sizeof(record.Record{}))
	t.Logf("%.0f bytes, %.1f allocations per routed round trip (the record slice is %.0f bytes)",
		perPull, float64(after.Mallocs-before.Mallocs)/pulls, slice)
	if perPull > 1.25*slice {
		t.Fatalf("a routed round trip allocates %.0f bytes; want about the client's %.0f-byte record slice: the router decodes and re-encodes nothing", perPull, slice)
	}
	if s.Pos() != int64(len(batch))*(8+pulls) {
		t.Fatalf("stream position %d after %d forwarded batches of %d", s.Pos(), 8+pulls, len(batch))
	}
}

// TestUnhedgedPullStartsNoGoroutine is the router-side half of the gate
// above: with hedging off, a routed pull is one PullAt on the primary leg in
// the caller's goroutine. At the parent every pull made a channel and started
// a goroutine to hand the batch back through it — 3 allocations a pull by
// this same measurement; a `go` statement or a `make(chan)` on the unhedged
// path shows up here as at least one.
func TestUnhedgedPullStartsNoGoroutine(t *testing.T) {
	const parentAllocs = 3
	rep := server.New(server.Config{ReplicaID: "replica-0"})
	rep.AddSource("sale", fixedSource{genRecords(256, 9)})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rep.Serve(rln)
	t.Cleanup(rep.Shutdown)
	router, _ := startRouter(t, Config{Replicas: []string{rln.Addr().String()}, Seed: 1}, nil)
	ep := endpoint{router}
	info, err := ep.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ep.OpenStream("", "conn:1", server.OpenStreamReq{ViewID: info.ViewID, Query: record.Box1D(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var buf []byte
	pos := int64(0)
	pull := func() {
		rb, err := st.Pull(buf[:0], pos, 256)
		if err != nil || rb.N != 256 {
			t.Fatalf("router-side pull: %d records, %v", rb.N, err)
		}
		buf, pos = rb.Body, rb.End
	}
	pull() // the leg's buffers reach their size
	goroutines := runtime.NumGoroutine()
	allocs := testing.AllocsPerRun(200, pull)
	t.Logf("%.1f allocations per router-side pull (parent: %d)", allocs, parentAllocs)
	if allocs >= parentAllocs || allocs >= 1 {
		t.Fatalf("an unhedged router-side pull makes %.1f allocations; want none (the parent's channel, goroutine and result made %d)", allocs, parentAllocs)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after 200 unhedged pulls, %d before", n, goroutines)
	}
}
