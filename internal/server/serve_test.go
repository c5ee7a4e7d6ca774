package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"sampleview"
	"sampleview/internal/record"
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

// startServer builds a view, serves it on a loopback listener, and returns
// the address plus a cleanup-registered server.
func startServer(t *testing.T, cfg Config, name string, recs []record.Record) (*Server, *sampleview.View, string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".view")
	v, err := sampleview.CreateFromSlice(path, recs, sampleview.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })

	srv := New(cfg)
	srv.AddView(name, v)
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
	return srv, v, ln.Addr().String(), path
}

// served is one way of serving the protocol, as a contract test sees it:
// the address clients dial, a local copy of the view behind it for reference
// sequences, and the three calls both kinds of endpoint answer.
type served struct {
	addr     string
	view     *sampleview.View
	serve    func(net.Listener) error
	shutdown func()
	snapshot func() *StatsSnapshot
	done     chan error // what serve returned for the listener at addr
}

// NewRouter builds a fleet router over the given replica addresses. The
// fleet package imports this one, so router_test.go (package server_test)
// fills it in.
var NewRouter func(replicas []string) (serve func(net.Listener) error, shutdown func(), snapshot func() *StatsSnapshot, err error)

// eachEndpoint runs one contract test against a server alone and against a
// router over two replicas — an endpoint of the same total stream capacity:
// cfg.MaxStreams, when set, is divided over the replicas. Whatever the
// contract says of one must hold of the other.
func eachEndpoint(t *testing.T, cfg Config, recs []record.Record, test func(t *testing.T, ep *served)) {
	listenAndServe := func(t *testing.T, ep *served) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ep.addr, ep.done = ln.Addr().String(), make(chan error, 1)
		go func() { ep.done <- ep.serve(ln) }()
		t.Cleanup(ep.shutdown)
	}
	t.Run("server", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sale.view")
		v, err := sampleview.CreateFromSlice(path, recs, sampleview.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		srv := New(cfg)
		srv.AddView("sale", v)
		ep := &served{view: v, serve: srv.Serve, shutdown: srv.Shutdown, snapshot: srv.Snapshot}
		listenAndServe(t, ep)
		test(t, ep)
	})
	t.Run("router", func(t *testing.T) {
		cfg.MaxStreams /= 2
		ep := &served{}
		var replicas []string
		for i := 0; i < 2; i++ {
			_, v, addr, _ := startServer(t, cfg, "sale", recs)
			ep.view = v
			replicas = append(replicas, addr)
		}
		var err error
		if ep.serve, ep.shutdown, ep.snapshot, err = NewRouter(replicas); err != nil {
			t.Fatal(err)
		}
		listenAndServe(t, ep)
		test(t, ep)
	})
}

// frameWatch follows the frames of everything read from a connection, so a
// test can tell a stream that ended between two frames from one that ended
// inside a frame.
type frameWatch struct {
	net.Conn
	hdr     [4]byte
	got     int    // header bytes of the current frame seen so far
	payload uint32 // payload bytes of the current frame still to come
	// hold, when set, stops the reader inside the next frame: it takes the
	// frame's first bytes and no more until hold is closed (and a moment
	// longer), so the rest stays in flight meanwhile.
	hold <-chan struct{}
}

func (w *frameWatch) Read(p []byte) (int, error) {
	if w.hold != nil {
		p = p[:min(len(p), 64)]
	}
	n, err := w.Conn.Read(p)
	for _, b := range p[:n] {
		if w.payload > 0 {
			w.payload--
			continue
		}
		w.hdr[w.got] = b
		if w.got++; w.got == len(w.hdr) {
			w.got, w.payload = 0, binary.LittleEndian.Uint32(w.hdr[:])
		}
	}
	if w.hold != nil && w.torn() {
		<-w.hold
		time.Sleep(50 * time.Millisecond)
		w.hold = nil
	}
	return n, err
}

// torn reports whether the last frame read is incomplete.
func (w *frameWatch) torn() bool { return w.got != 0 || w.payload != 0 }

// heldListener accepts its first connection at once but hands it to Serve
// only when released: a connection caught between accept and session.
type heldListener struct {
	net.Listener
	release chan struct{}
}

func (l *heldListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	<-l.release
	return conn, err
}

// pipeListener serves in-memory connections with no buffer between their
// ends: a response is in flight until its reader has taken the last byte.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return nil }

// TestServedStreamUniformity is the end-to-end correctness table test: K
// concurrent sessions against one served view, each asserting its stream's
// prefix is a true uniform without-replacement sample by cross-checking
// record-for-record against an in-process Stream over the same view file
// (the shuttle is deterministic given the stored view, so the served
// sequence must match the local one exactly), and that running to EOF
// yields the full matching set exactly once.
func TestServedStreamUniformity(t *testing.T) {
	recs := genRecords(12_000, 5)
	_, _, addr, path := startServer(t, Config{MaxStreams: 64}, "sale", recs)

	cases := []struct {
		name string
		q    record.Box
	}{
		{"narrow", record.Box1D(0, 1<<14)},
		{"quarter", record.Box1D(0, 1<<18)},
		{"middle", record.Box1D(1<<18, 1<<19)},
		{"full", record.Box1D(0, 1<<20)},
		{"empty", record.Box1D(-100, -1)},
		{"everything", record.FullBox(1)},
	}

	// K concurrent sessions: each case driven by several goroutines at
	// once, every one on its own connection.
	const perCase = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*perCase)
	for _, tc := range cases {
		for g := 0; g < perCase; g++ {
			wg.Add(1)
			go func(name string, q record.Box) {
				defer wg.Done()
				fail := func(format string, args ...any) {
					errs <- fmt.Errorf("%s: %s", name, fmt.Sprintf(format, args...))
				}
				cl, err := Dial(addr)
				if err != nil {
					fail("%v", err)
					return
				}
				defer cl.Close()
				rv, err := cl.OpenView("sale")
				if err != nil {
					fail("%v", err)
					return
				}
				remote, err := rv.Query(q)
				if err != nil {
					fail("%v", err)
					return
				}
				// The in-process reference stream over the same stored view.
				lv, err := sampleview.Open(path, sampleview.Options{})
				if err != nil {
					fail("%v", err)
					return
				}
				defer lv.Close()
				local, err := lv.Query(q)
				if err != nil {
					fail("%v", err)
					return
				}
				want := map[uint64]bool{}
				for i := range recs {
					if q.ContainsRecord(&recs[i]) {
						want[recs[i].Seq] = true
					}
				}
				seen := map[uint64]bool{}
				for i := 0; ; i++ {
					rr, rerr := remote.Next()
					lr, lerr := local.Next()
					if (rerr == io.EOF) != (lerr == io.EOF) {
						fail("stream lengths diverge at %d: remote %v, local %v", i, rerr, lerr)
						return
					}
					if rerr == io.EOF {
						break
					}
					if rerr != nil || lerr != nil {
						fail("at %d: remote %v, local %v", i, rerr, lerr)
						return
					}
					if rr != lr {
						fail("record %d diverges: remote seq %d, local seq %d", i, rr.Seq, lr.Seq)
						return
					}
					if seen[rr.Seq] {
						fail("duplicate seq %d: not without-replacement", rr.Seq)
						return
					}
					if !want[rr.Seq] {
						fail("seq %d does not match the predicate", rr.Seq)
						return
					}
					seen[rr.Seq] = true
				}
				if len(seen) != len(want) {
					fail("drained %d records, want %d", len(seen), len(want))
				}
			}(tc.name, tc.q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAdmissionControl verifies the typed rejections: the (max streams +
// 1)-th open-stream request receives CodeServerStreams — not a hang, not a
// panic — the per-connection cap receives CodeConnStreams, and slots free
// up when streams cancel.
func TestAdmissionControl(t *testing.T) {
	recs := genRecords(2_000, 9)
	const maxStreams = 4
	_, _, addr, _ := startServer(t, Config{MaxStreams: maxStreams, MaxStreamsPerConn: 3}, "sale", recs)

	// Per-connection cap: the 4th stream on one connection is rejected.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	var conn1Streams []*RemoteStream
	for i := 0; i < 3; i++ {
		s, err := rv.Query(record.Box1D(0, 1<<19))
		if err != nil {
			t.Fatalf("stream %d on conn 1: %v", i+1, err)
		}
		conn1Streams = append(conn1Streams, s)
	}
	_, err = rv.Query(record.Box1D(0, 1<<19))
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeConnStreams {
		t.Fatalf("4th stream on one conn: err = %v, want CodeConnStreams", err)
	}
	if !IsAdmissionReject(err) {
		t.Fatalf("IsAdmissionReject(%v) = false", err)
	}

	// Server-wide cap: a second connection can claim the remaining slot,
	// then the (max streams + 1)-th open-stream request is rejected with
	// the server-cap code.
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	rv2, err := cl2.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	s4, err := rv2.Query(record.Box1D(0, 1<<19))
	if err != nil {
		t.Fatalf("stream %d (server-wide): %v", maxStreams, err)
	}
	_, err = rv2.Query(record.Box1D(0, 1<<19))
	if !errors.As(err, &se) || se.Code != CodeServerStreams {
		t.Fatalf("stream %d: err = %v, want CodeServerStreams", maxStreams+1, err)
	}
	if !IsAdmissionReject(err) {
		t.Fatalf("IsAdmissionReject(%v) = false", err)
	}

	// The rejected session must still be fully usable.
	if _, err := s4.Sample(10); err != nil {
		t.Fatalf("sampling after a rejection: %v", err)
	}

	// Cancelling a stream frees its slot for a new admission.
	if err := conn1Streams[0].Close(); err != nil {
		t.Fatal(err)
	}
	s5, err := rv2.Query(record.Box1D(0, 1<<19))
	if err != nil {
		t.Fatalf("admission after cancel: %v", err)
	}
	s5.Close()
}

// TestEstimateAndStats exercises the estimate op and the stats frame.
func TestEstimateAndStats(t *testing.T) {
	recs := genRecords(8_000, 3)
	srv, _, addr, _ := startServer(t, Config{}, "sale", recs)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	if rv.Count() != int64(len(recs)) || rv.Dims() != 1 {
		t.Fatalf("view info: count %d dims %d", rv.Count(), rv.Dims())
	}
	q := record.Box1D(0, 1<<19)
	est, err := rv.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for i := range recs {
		if q.ContainsRecord(&recs[i]) {
			exact++
		}
	}
	if est < float64(exact)/2 || est > float64(exact)*2 {
		t.Fatalf("estimate %.0f is not within 2x of exact %d", est, exact)
	}

	s, err := rv.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Sample(500)
	if err != nil || len(got) != 500 {
		t.Fatalf("Sample: %d records, %v", len(got), err)
	}
	snap, err := cl.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.RecordsServed < 500 || snap.BatchesServed < 1 || snap.StreamsOpened < 1 {
		t.Fatalf("server counters too low: %+v", snap)
	}
	if snap.OpenStreams != 1 || snap.OpenConns != 1 {
		t.Fatalf("open counts: %d streams, %d conns, want 1, 1", snap.OpenStreams, snap.OpenConns)
	}
	if snap.SimIO <= 0 {
		t.Fatal("no simulated I/O charged")
	}
	if len(snap.Sessions) != 1 || snap.Sessions[0].Records < 500 || snap.Sessions[0].BytesWritten <= 0 {
		t.Fatalf("session row: %+v", snap.Sessions)
	}
	// The server-side Snapshot agrees.
	if local := srv.Snapshot(); local.RecordsServed != snap.RecordsServed {
		t.Fatalf("server snapshot records %d, wire snapshot %d", local.RecordsServed, snap.RecordsServed)
	}
	s.Close()
}

// TestIdleReapingOnSimulatedClock: a stream that goes idle while other
// streams advance the view's simulated disk clock is reaped when an
// open-stream request finds the server-wide cap exhausted, receives a
// typed CodeStreamReaped on its next pull, and its slot goes to the new
// stream. No wall clock is involved.
func TestIdleReapingOnSimulatedClock(t *testing.T) {
	recs := genRecords(20_000, 17)
	srv, _, addr, _ := startServer(t, Config{MaxStreams: 2, IdleTimeout: time.Millisecond}, "sale", recs)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}

	idle, err := rv.Query(record.Box1D(0, 1<<19))
	if err != nil {
		t.Fatal(err)
	}
	// Match the client batch size to the pull so the buffer drains exactly
	// and the next Sample is forced back onto the wire.
	idle.SetBatchSize(10)
	if _, err := idle.Sample(10); err != nil { // stamp some activity, then abandon
		t.Fatal(err)
	}

	// A busy stream takes the second (last) slot and advances the view's
	// simulated clock far past the 1 ms idle timeout (every leaf read
	// costs ≥ 1.2 ms simulated).
	busy, err := rv.Query(record.Box1D(0, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := busy.Sample(5_000); err != nil {
		t.Fatal(err)
	}

	// The cap is now exhausted; this open-stream request triggers the reap
	// and claims the idle stream's slot. The busy stream survives — its
	// last activity is recent on the simulated clock.
	trigger, err := rv.Query(record.Box1D(0, 1<<18))
	if err != nil {
		t.Fatal(err)
	}
	defer trigger.Close()

	_, err = idle.Sample(10)
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeStreamReaped {
		t.Fatalf("pull on reaped stream: err = %v, want CodeStreamReaped", err)
	}
	snap := srv.Snapshot()
	if snap.StreamsReaped < 1 {
		t.Fatalf("StreamsReaped = %d, want >= 1", snap.StreamsReaped)
	}
	// Cancelling a reaped stream is a no-op success (reaper/cancel race).
	if err := idle.Close(); err != nil {
		t.Fatalf("Close after reap: %v", err)
	}
}

// TestGracefulShutdownDrains shuts the endpoint down with a batch response
// in flight on every connection: every response a client reads must be
// complete and well-formed (a batch is either fully delivered or the
// connection closes cleanly before it — never a torn frame), a connection
// accepted while the drain is under way is turned away with a typed frame,
// and Shutdown must return.
func TestGracefulShutdownDrains(t *testing.T) {
	eachEndpoint(t, Config{MaxStreams: 64}, genRecords(30_000, 23), func(t *testing.T, ep *served) {
		listen := func() net.Listener {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return ln
		}
		// The clients' listener: its responses stay in flight until read.
		pipes := &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
		pipesServed := make(chan error, 1)
		go func() { pipesServed <- ep.serve(pipes) }()
		// And one whose only connection is accepted before the drain starts
		// and reaches the endpoint after it.
		held := &heldListener{Listener: listen(), release: make(chan struct{})}
		heldServed := make(chan error, 1)
		go func() { heldServed <- ep.serve(held) }()
		late, err := net.Dial("tcp", held.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer late.Close()

		const clients = 8
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		started := make(chan struct{}, clients)
		draining := make(chan struct{})
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				watch := &frameWatch{Conn: pipes.dial()}
				cl := NewClient(watch)
				defer cl.Close()
				rv, err := cl.OpenView("sale")
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", g, err)
					started <- struct{}{}
					return
				}
				// The stream's open is read whole; the first batch is begun
				// and left half-read, the rest of it blocked half-written,
				// until the drain has begun.
				s, err := rv.Query(record.Box1D(0, 1<<20))
				watch.hold = draining
				started <- struct{}{}
				total := 0
				for err == nil {
					var batch []record.Record
					batch, err = s.NextBatch()
					total += len(batch)
				}
				// Once draining starts, the only acceptable failures are clean
				// transport closes between two frames — never a torn frame, a
				// decode error or a server-side panic message.
				if watch.torn() {
					errs <- fmt.Errorf("client %d after %d records: connection ended inside a frame: %v", g, total, err)
				} else if err != io.EOF && !isCleanDisconnect(err) {
					errs <- fmt.Errorf("client %d after %d records: %v", g, total, err)
				}
			}(g)
		}
		for g := 0; g < clients; g++ {
			<-started
		}
		time.Sleep(50 * time.Millisecond) // let the held-back responses get under way
		close(draining)
		ep.shutdown()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		for _, served := range []chan error{ep.done, pipesServed} {
			if err := <-served; err != nil {
				t.Fatalf("Serve returned %v after Shutdown", err)
			}
		}
		// New connections are refused after shutdown.
		if _, err := net.DialTimeout("tcp", ep.addr, 100*time.Millisecond); err == nil {
			t.Fatal("listener still accepting after Shutdown")
		}

		// The connection that was accepted before the drain and arrives after
		// it is answered, not dropped.
		close(held.release)
		late.SetReadDeadline(time.Now().Add(5 * time.Second))
		ft, body, err := NewFrameReader(late).Next()
		if err != nil || ft != FError {
			t.Fatalf("connection accepted while draining: read %v frame, %v; want the typed refusal", ft, err)
		}
		if m, err := DecodeErrorResp(body); err != nil || m.Code != CodeShuttingDown {
			t.Fatalf("connection accepted while draining: refused with %+v (%v), want CodeShuttingDown", m, err)
		}
		if err := <-heldServed; err != nil {
			t.Fatalf("Serve on the held listener returned %v after Shutdown", err)
		}
	})
}

// TestShutdownLeavesNoGoroutines: Shutdown with streams in flight on several
// connections leaves the process no goroutine the endpoint started — its
// per-connection sessions included — once the clients go away.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	eachEndpoint(t, Config{MaxStreams: 64}, genRecords(6_000, 37), func(t *testing.T, ep *served) {
		base := runtime.NumGoroutine()
		const conns = 4
		var clients []*Client
		for i := 0; i < conns; i++ {
			cl, err := Dial(ep.addr)
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, cl)
			rv, err := cl.OpenView("sale")
			if err != nil {
				t.Fatal(err)
			}
			s, err := rv.Query(record.Box1D(0, 1<<19))
			if err != nil {
				t.Fatal(err)
			}
			if batch, err := s.NextBatch(); err != nil || len(batch) == 0 {
				t.Fatalf("connection %d: %d records, %v", i, len(batch), err)
			}
		}
		if n := runtime.NumGoroutine(); n <= base {
			t.Fatalf("%d goroutines with %d connections open, baseline %d: the check cannot see a session", n, conns, base)
		}
		ep.shutdown()
		if err := <-ep.done; err != nil {
			t.Fatalf("Serve returned %v after Shutdown", err)
		}
		for _, cl := range clients {
			cl.Close()
		}
		// The baseline counted the Serve loop, which has returned.
		want := base - 1
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines 5s after Shutdown, want at most %d", runtime.NumGoroutine(), want)
			}
		}
	})
}

// isCleanDisconnect reports whether err is an orderly transport-level
// close, as opposed to a protocol violation.
func isCleanDisconnect(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, io.ErrUnexpectedEOF) {
		// ErrUnexpectedEOF can only be clean here if no partial payload was
		// delivered; FrameReader wraps torn payloads distinctly, but a
		// connection reset mid-header reads as unexpected EOF with zero
		// frame bytes consumed by the client buffer. Treat resets as clean.
		return true
	}
	var opErr *net.OpError
	return errors.As(err, &opErr)
}

// TestSessionTeardownFreesSlots: closing a connection releases all its
// admission slots.
func TestSessionTeardownFreesSlots(t *testing.T) {
	eachEndpoint(t, Config{MaxStreams: 2, MaxStreamsPerConn: 2}, genRecords(2_000, 29), func(t *testing.T, ep *served) {
		cl, err := Dial(ep.addr)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := cl.OpenView("sale")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := rv.Query(record.Box1D(0, 1<<19)); err != nil {
				t.Fatal(err)
			}
		}
		cl.Close()

		// The teardown is asynchronous; poll the endpoint until the slots return.
		deadline := time.Now().Add(5 * time.Second)
		for {
			cl2, err := Dial(ep.addr)
			if err != nil {
				t.Fatal(err)
			}
			rv2, err := cl2.OpenView("sale")
			if err != nil {
				t.Fatal(err)
			}
			s, err := rv2.Query(record.Box1D(0, 1<<19))
			if err == nil {
				s.Close()
				cl2.Close()
				return
			}
			cl2.Close()
			if !IsAdmissionReject(err) {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatal("slots never freed after connection close")
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestUnknownViewAndStream covers the typed not-found errors, and the one
// request that is answered with no frame at all: a length prefix outside the
// protocol's bounds closes the connection and is counted.
func TestUnknownViewAndStream(t *testing.T) {
	eachEndpoint(t, Config{}, genRecords(1_000, 31), func(t *testing.T, ep *served) {
		cl, err := Dial(ep.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		_, err = cl.OpenView("nope")
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeUnknownView {
			t.Fatalf("OpenView(nope): err = %v, want CodeUnknownView", err)
		}
		rv, err := cl.OpenView("sale")
		if err != nil {
			t.Fatal(err)
		}
		// A fabricated stream id draws CodeUnknownStream.
		err = cl.roundTrip(FNextBatch, NextBatchReq{StreamID: 999, Max: 10}.Encode(), FBatch, nil)
		if !errors.As(err, &se) || se.Code != CodeUnknownStream {
			t.Fatalf("NextBatch(999): err = %v, want CodeUnknownStream", err)
		}
		// Dimension mismatch is a bad request, not a hang.
		_, err = rv.Query(record.Box2D(0, 1, 0, 1))
		if !errors.As(err, &se) || se.Code != CodeBadRequest {
			t.Fatalf("2-d query on 1-d view: err = %v, want CodeBadRequest", err)
		}

		conn, err := net.Dial("tcp", ep.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, MaxFrame+1)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("over-length frame: read %d bytes, %v; want the connection closed", n, err)
		}
		if bad := ep.snapshot().BadFrames; bad != 1 {
			t.Fatalf("BadFrames = %d after one over-length frame, want 1", bad)
		}
	})
}
