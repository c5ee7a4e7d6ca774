package fleet

import (
	"errors"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sampleview"
	"sampleview/internal/record"
	"sampleview/internal/server"
)

// tapListener hands a test every connection a replica accepts, so it can kill
// one from the replica's side or hold back what the replica writes to it.
type tapListener struct {
	net.Listener
	stall atomic.Bool   // while set, accepted connections' writes wait for release
	once  sync.Once     // closes release
	free  chan struct{} // closed by release

	mu    sync.Mutex
	conns []net.Conn // guarded by mu
}

func tap(ln net.Listener) *tapListener { return &tapListener{Listener: ln, free: make(chan struct{})} }

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return tappedConn{c, l}, nil
}

// release lets every withheld write go, for good.
func (l *tapListener) release() { l.once.Do(func() { close(l.free) }) }

// kill closes the i-th connection accepted, from this side.
func (l *tapListener) kill(i int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conns[i].Close()
}

type tappedConn struct {
	net.Conn
	l *tapListener
}

func (c tappedConn) Write(p []byte) (int, error) {
	if c.l.stall.Load() {
		<-c.l.free
	}
	return c.Conn.Write(p)
}

// startReplica serves recs as "sale" from a fresh view on addr ("" picks a
// port), through a tap.
func startReplica(t *testing.T, recs []record.Record, cfg server.Config, addr string) (*server.Server, *tapListener) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	v, err := sampleview.CreateFromSlice(filepath.Join(t.TempDir(), "replica.view"), recs, sampleview.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	srv := server.New(cfg)
	srv.AddView("sale", v)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tl := tap(ln)
	go srv.Serve(tl)
	t.Cleanup(srv.Shutdown)
	t.Cleanup(tl.release)
	return srv, tl
}

// startRouter connects and serves a router over addrs; prep sees it before
// it dials anything.
func startRouter(t *testing.T, cfg Config, prep func(*Router)) (*Router, string) {
	t.Helper()
	router, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(router)
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
	return router, ln.Addr().String()
}

func dialView(t *testing.T, addr, tenant string) *server.RemoteView {
	t.Helper()
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if tenant != "" {
		if err := cl.SetTenant(tenant); err != nil {
			t.Fatal(err)
		}
	}
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

// parkedAt is how many quiescent connections the router keeps to a replica.
func parkedAt(rep *replica) int {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return len(rep.parked)
}

// settles polls until ok holds, failing the test if it never does.
func settles(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never settled: %s", what)
		}
	}
}

// TestLegReleaseIsSynchronous: a routed stream's Close has freed the
// replica's slot by the time the client hears of it, so a client that closes
// one stream and opens the next is never refused by a replica at its cap —
// and the 500 streams ride one kept connection, not 500 dialed ones. At the
// parent, where a leg's slot came back only when the replica noticed the
// leg's TCP close, 10–40% of these opens drew CodeServerStreams.
func TestLegReleaseIsSynchronous(t *testing.T) {
	const ops = 500
	srv, tl := startReplica(t, genRecords(4000, 3), server.Config{MaxStreams: 1}, "")
	router, addr := startRouter(t, Config{Replicas: []string{tl.Addr().String()}, Seed: 42}, nil)
	rv := dialView(t, addr, "")

	accepted := srv.Snapshot().ConnsAccepted
	for i := 0; i < ops; i++ {
		s, err := rv.Query(record.Box1D(0, 1<<19))
		if err != nil {
			t.Fatalf("open %d straight after a close: %v", i, err)
		}
		if batch, err := s.NextBatch(); err != nil || len(batch) == 0 {
			t.Fatalf("stream %d: %d records, %v", i, len(batch), err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	snap := srv.Snapshot()
	if snap.StreamsOpened != ops || snap.RejectedServer != 0 {
		t.Fatalf("replica opened %d streams and refused %d; want all %d placed there, none refused", snap.StreamsOpened, snap.RejectedServer, ops)
	}
	if got := snap.ConnsAccepted - accepted; got != 1 {
		t.Fatalf("replica accepted %d connections over %d streams, want the one leg", got, ops)
	}
	if d, r := router.legsDialed.Load(), router.legsReused.Load(); d != 1 || r != ops-1 {
		t.Fatalf("legs dialed %d, reused %d; want 1 and %d", d, r, ops-1)
	}
}

// TestStaleLegRedials: a parked connection that died while it sat idle —
// killed at the replica's end, killed at the router's (through the dial
// seam), or the replica restarted on the same address — costs the next open
// one fresh dial and nothing else: no dead replica, no migration.
func TestStaleLegRedials(t *testing.T) {
	recs := genRecords(4000, 5)
	for _, mode := range []string{"killed at the replica", "killed at the router", "replica restarted"} {
		t.Run(mode, func(t *testing.T) {
			srv, tl := startReplica(t, recs, server.Config{MaxStreams: 8}, "")
			repAddr := tl.Addr().String()
			var mu sync.Mutex
			var dialed []net.Conn // guarded by mu; the metadata connection, then the legs
			router, addr := startRouter(t, Config{Replicas: []string{repAddr}, Seed: 42}, func(r *Router) {
				r.dial = func(addr string) (*server.Client, error) {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						return nil, err
					}
					mu.Lock()
					dialed = append(dialed, conn)
					mu.Unlock()
					return server.NewClient(conn), nil
				}
			})
			rv := dialView(t, addr, "acme")
			openOne := func() {
				t.Helper()
				s, err := rv.Query(record.Box1D(0, 1<<19))
				if err != nil {
					t.Fatal(err)
				}
				if batch, err := s.NextBatch(); err != nil || len(batch) == 0 {
					t.Fatalf("%d records, %v", len(batch), err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			openOne()
			if n := parkedAt(router.reps[0]); n != 1 {
				t.Fatalf("%d connections parked after one stream, want 1", n)
			}
			switch mode {
			case "killed at the replica":
				tl.kill(1) // 0 is the metadata connection
			case "killed at the router":
				mu.Lock()
				dialed[1].Close()
				mu.Unlock()
			default:
				srv.Shutdown()
				startReplica(t, recs, server.Config{MaxStreams: 8}, repAddr)
			}
			openOne()
			openOne()
			if d, r := router.legsDialed.Load(), router.legsReused.Load(); d != 2 || r != 1 {
				t.Fatalf("legs dialed %d, reused %d; want 2 (the first and the one after the stale leg) and 1", d, r)
			}
			snap := router.Snapshot()
			if snap.ReplicasLive != 1 || snap.Migrations != 0 {
				t.Fatalf("ReplicasLive %d, Migrations %d after a stale parked connection; want 1 and 0", snap.ReplicasLive, snap.Migrations)
			}
		})
	}
}

// TestStaleLegRefusedAndReleased: a leg the replica refuses with a typed
// admission code goes back to the pool and serves the next open; markDead and
// Shutdown leave the replica no session and the process no goroutine of the
// router's.
func TestStaleLegRefusedAndReleased(t *testing.T) {
	recs := genRecords(4000, 7)
	for _, tc := range []struct {
		name string
		cfg  server.Config
		code uint16
	}{
		{"server cap", server.Config{MaxStreams: 1}, server.CodeServerStreams},
		{"tenant cap", server.Config{MaxStreams: 8, MaxStreamsPerTenant: 1}, server.CodeTenantStreams},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			srv, tl := startReplica(t, recs, tc.cfg, "")
			router, addr := startRouter(t, Config{Replicas: []string{tl.Addr().String()}, Seed: 42, TenantStreams: 4}, nil)
			rv := dialView(t, addr, "acme")
			q := record.Box1D(0, 1<<19)
			held, err := rv.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				var se *server.Error
				if _, err := rv.Query(q); !errors.As(err, &se) || se.Code != tc.code {
					t.Fatalf("open %d past the replica's cap: %v, want code %d", i, err, tc.code)
				}
			}
			if d, r := router.legsDialed.Load(), router.legsReused.Load(); d != 2 || r != 0 {
				t.Fatalf("legs dialed %d, reused %d after two refusals; want 2 dialed (the second refusal rode the first's connection) and none reused", d, r)
			}
			if err := held.Close(); err != nil {
				t.Fatal(err)
			}
			s, err := rv.Query(q)
			if err != nil {
				t.Fatalf("open after the slot came back: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if d, r := router.legsDialed.Load(), router.legsReused.Load(); d != 2 || r != 1 {
				t.Fatalf("legs dialed %d, reused %d; want 2 and 1", d, r)
			}
			if n := srv.Snapshot().OpenConns; n != 3 {
				t.Fatalf("replica has %d connections open, want metadata + 2 parked", n)
			}

			router.markDead(router.reps[0])
			settles(t, "replica sessions after markDead", func() bool { return srv.Snapshot().OpenConns == 0 })
			if _, err := router.probeReplica(router.reps[0]); err != nil {
				t.Fatal(err)
			}
			if s, err = rv.Query(q); err != nil {
				t.Fatalf("open after the replica was probed back: %v", err)
			}
			s.Close()
			settles(t, "metadata + 1 parked", func() bool { return srv.Snapshot().OpenConns == 2 })
			router.Shutdown()
			settles(t, "replica sessions after Shutdown", func() bool { return srv.Snapshot().OpenConns == 0 })
			srv.Shutdown()
			settles(t, "goroutines", func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}

// TestHedgeLoserIsClosedNotParked: a replica that stalls mid-pull past the
// hedge budget loses the race, and the stream's Close neither waits for it
// nor keeps its connection; the winner's is parked.
func TestHedgeLoserIsClosedNotParked(t *testing.T) {
	recs := genRecords(6000, 9)
	var taps []*tapListener
	var addrs []string
	for i := 0; i < 2; i++ {
		_, tl := startReplica(t, recs, server.Config{MaxStreams: 8}, "")
		taps, addrs = append(taps, tl), append(addrs, tl.Addr().String())
	}
	router, addr := startRouter(t, Config{Replicas: addrs, Seed: 42, HedgeAfter: 100 * time.Millisecond}, nil)
	rv := dialView(t, addr, "")
	q := record.Box1D(0, 1<<19)
	const seed = 0x5eed
	s, err := rv.QueryAt(q, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetBatchSize(64)
	var got []record.Record
	pull := func() {
		t.Helper()
		batch, err := s.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	pull()
	slow := -1
	for i, rep := range router.reps {
		rep.mu.Lock()
		if rep.streams > 0 {
			slow = i
		}
		rep.mu.Unlock()
	}
	if slow < 0 {
		t.Fatal("no replica holds the stream's primary leg")
	}
	taps[slow].stall.Store(true)
	pull() // the primary's answer is withheld: the shadow wins
	pull()
	ref, err := sampleview.CreateFromSlice(filepath.Join(t.TempDir(), "ref.view"), recs, sampleview.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if want := localSeeded(t, ref, q, seed); len(want) < len(got) || !sameRecords(got, want[:len(got)]) {
		t.Fatal("hedged stream diverges from the local reference")
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v: it waited on the stalled leg", d)
	}
	if snap := router.Snapshot(); snap.HedgedReads == 0 || snap.HedgeWins == 0 {
		t.Fatalf("hedged %d, won %d; want the stalled pull hedged and lost", snap.HedgedReads, snap.HedgeWins)
	}
	if n := parkedAt(router.reps[slow]); n != 0 {
		t.Fatalf("%d connections parked at the stalled replica, want its leg closed", n)
	}
	if n := parkedAt(router.reps[1-slow]); n != 1 {
		t.Fatalf("%d connections parked at the winner, want 1", n)
	}
}
