package server

import (
	"io"
	"testing"

	"sampleview"
	"sampleview/internal/record"
)

// drainStream pulls a remote stream to EOF.
func drainStream(t *testing.T, rs *RemoteStream) []record.Record {
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

// localSeededSeq is the reference sequence an in-process seeded stream
// over the same view file produces.
func localSeededSeq(t *testing.T, v *sampleview.View, q record.Box, seed uint64) []record.Record {
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

// TestTenantStreamCapSharedAcrossConns: MaxStreamsPerTenant is a single
// budget summed over every connection that declared the tenant, while
// undeclared connections fall back to per-connection accounting and are
// untouched by the tenant's exhausted cap.
func TestTenantStreamCapSharedAcrossConns(t *testing.T) {
	recs := genRecords(2000, 3)
	_, _, addr, _ := startServer(t, Config{MaxStreams: 64, MaxStreamsPerTenant: 2}, "sale", recs)
	q := record.FullBox(1)

	dial := func() *Client {
		t.Helper()
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	c1, c2 := dial(), dial()
	for _, c := range []*Client{c1, c2} {
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
	_, err = v2.Query(q)
	se, ok := err.(*Error)
	if !ok || se.Code != CodeTenantStreams {
		t.Fatalf("third stream of a tenant at cap 2: got %v, want CodeTenantStreams", err)
	}
	if !IsAdmissionReject(err) {
		t.Fatalf("CodeTenantStreams not classified as an admission reject")
	}

	// A connection under a different tenant has its own budget.
	c3 := dial()
	if err := c3.SetTenant("globex"); err != nil {
		t.Fatal(err)
	}
	v3, err := c3.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v3.Query(q); err != nil {
		t.Fatalf("different tenant rejected: %v", err)
	}

	// So does an undeclared connection (per-connection fallback).
	c4 := dial()
	v4, err := c4.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	s4, err := v4.Query(q)
	if err != nil {
		t.Fatalf("untenanted connection rejected: %v", err)
	}
	s4.Close()

	snap, err := c4.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.RejectedTenant == 0 {
		t.Fatal("snapshot shows no tenant-cap rejections")
	}
	if snap.TenantsActive < 2 {
		t.Fatalf("TenantsActive = %d, want >= 2", snap.TenantsActive)
	}
}

// TestSeededOpenAtPosition: a seeded open is deterministic — byte-identical
// to the local seeded stream — and a non-zero start position serves exactly
// the reference's suffix from that offset (the migration fast-forward).
func TestSeededOpenAtPosition(t *testing.T) {
	recs := genRecords(6000, 7)
	_, v, addr, _ := startServer(t, Config{MaxStreams: 64}, "sale", recs)
	q := record.Box1D(0, 1<<19)
	const seed = 0x5eed

	want := localSeededSeq(t, v, q, seed)
	if len(want) < 100 {
		t.Fatalf("reference sequence too short (%d); bad test setup", len(want))
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}

	for _, start := range []int{0, 1, 97, len(want) - 1, len(want)} {
		rs, err := rv.QueryAt(q, seed, int64(start))
		if err != nil {
			t.Fatalf("start %d: %v", start, err)
		}
		got := drainStream(t, rs)
		wantSuffix := want[start:]
		if len(got) != len(wantSuffix) {
			t.Fatalf("start %d: got %d records, want %d", start, len(got), len(wantSuffix))
		}
		for i := range got {
			if got[i] != wantSuffix[i] {
				t.Fatalf("start %d: record %d diverges from the reference suffix", start, i)
			}
		}
	}
}

// TestPullPositionContract: PullAt's position argument is the client's
// claim of where the stream stands. Matching the server is normal;
// ahead-of-server fast-forwards (hedge-duplicate suppression); behind-the-
// server is unservable and rejects with CodeStreamPosition; and every
// batch response carries the canonical resume position.
func TestPullPositionContract(t *testing.T) {
	eachEndpoint(t, Config{MaxStreams: 64}, genRecords(6000, 9), testPullPositionContract)
}

func testPullPositionContract(t *testing.T, ep *served) {
	q := record.Box1D(0, 1<<19)
	const seed = 0xca11
	want := localSeededSeq(t, ep.view, q, seed)

	cl, err := Dial(ep.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rv.QueryAt(q, seed, 0)
	if err != nil {
		t.Fatal(err)
	}

	// pullAt is PullAt with the forwarded body decoded, checked against the
	// fields PullAt read off it without decoding.
	var raw []byte
	pullAt := func(pos int64, max int) ([]record.Record, bool, int64, error) {
		rb, err := rs.PullAt(pos, max, raw[:0])
		if err != nil {
			return nil, false, rb.End, err
		}
		raw = rb.Body
		m, err := DecodeBatchResp(rb.Body)
		if err != nil || len(m.Records) != rb.N || m.EOF != rb.EOF || m.Pos != rb.End {
			t.Fatalf("PullAt(%d) says n=%d eof=%v end=%d, its body decodes to n=%d eof=%v pos=%d (%v)",
				pos, rb.N, rb.EOF, rb.End, len(m.Records), m.EOF, m.Pos, err)
		}
		return m.Records, rb.EOF, rb.End, nil
	}

	// Normal pull at the server's position.
	recsA, eof, end, err := pullAt(0, 100)
	if err != nil || eof {
		t.Fatalf("PullAt(0): recs=%d eof=%v err=%v", len(recsA), eof, err)
	}
	if end != int64(len(recsA)) {
		t.Fatalf("canonical position after first pull = %d, want %d", end, len(recsA))
	}
	for i := range recsA {
		if recsA[i] != want[i] {
			t.Fatalf("record %d diverges from the reference", i)
		}
	}

	// Ahead of the server: it must fast-forward and serve from the claimed
	// position, exactly as the reference does.
	ahead := end + 50
	recsB, _, endB, err := pullAt(ahead, 100)
	if err != nil {
		t.Fatalf("PullAt(ahead): %v", err)
	}
	if endB != ahead+int64(len(recsB)) {
		t.Fatalf("canonical position after fast-forward pull = %d, want %d", endB, ahead+int64(len(recsB)))
	}
	for i := range recsB {
		if recsB[i] != want[int(ahead)+i] {
			t.Fatalf("fast-forwarded record %d diverges from the reference", i)
		}
	}

	// Behind the server: records already served are gone; the claim is
	// unservable and must reject with the position code, leaving the
	// stream usable at its canonical position.
	_, _, _, err = pullAt(endB-1, 100)
	se, ok := err.(*Error)
	if !ok || se.Code != CodeStreamPosition {
		t.Fatalf("PullAt(behind): got %v, want CodeStreamPosition", err)
	}
	recsC, _, _, err := pullAt(endB, 100)
	if err != nil {
		t.Fatalf("pull at canonical position after a rejected claim: %v", err)
	}
	for i := range recsC {
		if recsC[i] != want[int(endB)+i] {
			t.Fatalf("post-reject record %d diverges from the reference", i)
		}
	}
}

// TestSeededStreamsByteIdenticalAcrossServers: two servers over separately
// built view files from the same records and build seed serve byte-identical
// seeded streams — the replica-consistency invariant the fleet's hedging
// and migration rest on, verified without any router in the loop.
func TestSeededStreamsByteIdenticalAcrossServers(t *testing.T) {
	recs := genRecords(8000, 11)
	_, _, addrA, _ := startServer(t, Config{MaxStreams: 16}, "sale", recs)
	_, _, addrB, _ := startServer(t, Config{MaxStreams: 16}, "sale", recs)
	q := record.Box1D(0, 1<<19)
	const seed = 0xf1ee7

	pull := func(addr string) []record.Record {
		t.Helper()
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		rv, err := cl.OpenView("sale")
		if err != nil {
			t.Fatal(err)
		}
		rs, err := rv.QueryAt(q, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		return drainStream(t, rs)
	}
	a, b := pull(addrA), pull(addrB)
	if len(a) == 0 {
		t.Fatal("empty sequence; bad test setup")
	}
	if len(a) != len(b) {
		t.Fatalf("servers served %d vs %d records over identical view bytes", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("servers diverge at record %d over identical view bytes", i)
		}
	}
}
