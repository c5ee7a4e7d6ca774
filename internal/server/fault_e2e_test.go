package server

import (
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"sampleview"
	"sampleview/internal/iosim"
	"sampleview/internal/record"
)

// smallPageOpts shrinks the simulated disk's pages so modest test views
// span enough pages for per-page fault rates to bite.
func smallPageOpts(seed uint64) sampleview.Options {
	m := iosim.DefaultModel()
	m.PageSize = 2048
	m.RandomRead = time.Millisecond
	m.SequentialRead = 100 * time.Microsecond
	return sampleview.Options{Seed: seed, DiskModel: m}
}

// startFaultServer serves one small-page view and returns the server, the
// view (for fault injection) and the listener address.
func startFaultServer(t *testing.T, cfg Config, recs []record.Record) (*Server, *sampleview.View, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chaos.view")
	v, err := sampleview.CreateFromSlice(path, recs, smallPageOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })

	srv := New(cfg)
	srv.AddView("sale", v)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after Shutdown, want nil", err)
		}
	})
	return srv, v, ln.Addr().String()
}

// TestServedTransientRetryTransparent is the mid-stream resilience
// criterion: under a fault profile whose transient bursts outlive the
// storage layer's retry budget, typed CodeTransient frames reach the
// client, the client's seeded-backoff retry absorbs every one, and the
// delivered record sequence is byte-identical to a fault-free local
// stream over the same view.
func TestServedTransientRetryTransparent(t *testing.T) {
	recs := genRecords(8000, 5)
	srv, v, addr := startFaultServer(t, Config{}, recs)

	// Fault-free local baseline, drained before faults are injected.
	q := record.Box1D(0, 1<<19)
	local, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Sample(len(recs))
	if err != nil {
		t.Fatal(err)
	}

	plan, err := sampleview.FaultProfile("flaky-deep", 99)
	if err != nil {
		t.Fatal(err)
	}
	v.InjectFaults(plan)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var waits []time.Duration
	cl.mu.Lock()
	cl.sleep = func(d time.Duration) { waits = append(waits, d) }
	cl.mu.Unlock()

	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rv.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var got []record.Record
	for {
		rec, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("client saw an error despite transient retry: %v", err)
		}
		got = append(got, rec)
	}
	if len(got) != len(want) {
		t.Fatalf("served %d records, local fault-free stream %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs from the fault-free baseline", i)
		}
	}
	if cl.Retries() == 0 {
		t.Fatal("flaky-deep forced no client retries; the profile never escaped the storage layer")
	}
	if int64(len(waits)) != cl.Retries() {
		t.Fatalf("client slept %d times for %d retries", len(waits), cl.Retries())
	}
	for i, d := range waits {
		if d <= 0 || d > 250*time.Millisecond {
			t.Fatalf("backoff wait %d = %v outside (0, 250ms]", i, d)
		}
	}
	snap := srv.Snapshot()
	if snap.TransientErrors == 0 {
		t.Fatal("server sent no CodeTransient frames")
	}
	if snap.DegradedErrors != 0 {
		t.Fatalf("transient-only profile produced %d degraded frames", snap.DegradedErrors)
	}
}

// TestRetryBackoffDeterministic pins the seeded jitter: two jitter sources
// with the same seed produce identical backoff schedules.
func TestRetryBackoffDeterministic(t *testing.T) {
	schedule := func() []time.Duration {
		rng := jitterSource(42)
		var out []time.Duration
		for attempt := 0; attempt < 8; attempt++ {
			out = append(out, backoff(attempt, rng.Uint64()))
		}
		return out
	}
	a, b := schedule(), schedule()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff %d differs across identically seeded clients: %v vs %v", i, a[i], b[i])
		}
		if a[i] <= 0 || a[i] > maxDelay {
			t.Fatalf("backoff %d = %v outside (0, %v]", i, a[i], maxDelay)
		}
	}
	if a[0] >= a[6] {
		t.Fatalf("backoff should grow: first %v, seventh %v", a[0], a[6])
	}
}

// TestClientsJitterApart pins that clients do not back off in lockstep:
// two clients of one process draw different first jitters, so their
// retries of one transient failure do not land on the server together.
func TestClientsJitterApart(t *testing.T) {
	first := func() uint64 {
		c := NewClient(nil)
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.rng.Uint64()
	}
	if a, b := first(), first(); a == b {
		t.Fatalf("two clients drew the same first jitter %d", a)
	}
}

// TestServedCorruptionTypedErrorNotConnDrop is the hard-failure
// criterion: a sticky bad page surfaces to the client as a clean typed
// CodeDegraded error frame — never garbage records, never a dropped
// connection — and the stream keeps serving the surviving leaves to EOF.
func TestServedCorruptionTypedErrorNotConnDrop(t *testing.T) {
	recs := genRecords(8000, 9)
	byseq := make(map[uint64]record.Record, len(recs))
	for _, r := range recs {
		byseq[r.Seq] = r
	}
	srv, v, addr := startFaultServer(t, Config{}, recs)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.mu.Lock()
	cl.sleep = func(time.Duration) {}
	cl.mu.Unlock()

	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	// Search seeds for a plan that kills a queried leaf page: a miss moves
	// on to the next seed, it does not skip.
	var got []record.Record
	degraded := 0
	for seed := uint64(3); degraded == 0; seed++ {
		if seed == 3+50 {
			t.Fatal("no sticky plan in 50 seeds hit a leaf page")
		}
		v.InjectFaults(iosim.FaultPlan{Seed: seed, StickyRate: 0.02, TransientRate: 0.05, TransientBurst: 2})
		rs, err := rv.Query(record.FullBox(1))
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for {
			rec, err := rs.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !IsDegraded(err) {
					t.Fatalf("stream error is not a typed degraded frame: %v", err)
				}
				degraded++
				continue // the stream must stay serviceable
			}
			got = append(got, rec)
		}
	}
	seen := make(map[uint64]bool, len(got))
	for i := range got {
		want, ok := byseq[got[i].Seq]
		if !ok || got[i] != want {
			t.Fatalf("served a record that is not in the source relation: %+v", got[i])
		}
		if seen[got[i].Seq] {
			t.Fatalf("record seq %d served twice", got[i].Seq)
		}
		seen[got[i].Seq] = true
	}
	if len(got) >= len(recs) {
		t.Fatal("degraded stream cannot have served the full relation")
	}
	// The connection survived: further requests on the same client work.
	snap, err := cl.ServerStats()
	if err != nil {
		t.Fatalf("connection unusable after degraded errors: %v", err)
	}
	if snap.DegradedErrors == 0 {
		t.Fatal("server counted no degraded frames")
	}
	if snap.OpenConns == 0 {
		t.Fatal("server dropped the connection on a storage fault")
	}
	_ = srv
}

// TestRequestTimeoutStalledPeer verifies the per-request deadline: a peer
// that sends a frame header and then stalls mid-frame is disconnected
// once RequestTimeout elapses, while the wait for a fresh request stays
// unbounded.
func TestRequestTimeoutStalledPeer(t *testing.T) {
	recs := genRecords(500, 1)
	_, _, addr := startFaultServer(t, Config{RequestTimeout: 100 * time.Millisecond}, recs)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Idle longer than the timeout before sending anything: the connection
	// must survive, because no request is in flight yet.
	time.Sleep(250 * time.Millisecond)
	cl := NewClient(nc)
	if _, err := cl.OpenView("sale"); err != nil {
		t.Fatalf("idle connection was killed before any request: %v", err)
	}

	// Now stall mid-frame: header promising 64 bytes, then silence.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 64)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil || err == io.ErrNoProgress {
		t.Fatal("stalled request was not disconnected")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not enforce the request deadline within 5s")
	}
}
