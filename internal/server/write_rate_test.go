package server

import (
	"testing"
	"time"

	"sampleview/internal/record"
)

// freshRecords returns n records whose Seqs, from seq0 on, are disjoint from
// any genRecords view's.
func freshRecords(n int, seq0 uint64) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: int64(i) * 7, Amount: int64(i), Seq: seq0 + uint64(i)}
	}
	return recs
}

// dialView connects to an endpoint as tenant ("" = none) and resolves its
// view.
func dialView(t *testing.T, ep *served, tenant string) (*Client, *RemoteView) {
	t.Helper()
	cl, err := Dial(ep.addr)
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
	return cl, rv
}

// appendOnce sends one append with no client-side retry, as the wire sees it.
func appendOnce(cl *Client, rv *RemoteView, recs []record.Record) error {
	return cl.roundTrip(FAppend, WriteReq{ViewID: rv.id, Records: recs}.Encode(), FAppendOK, nil)
}

// TestOversizeWriteBatchAdmitted: a write batch larger than the rate
// bucket's burst (here 4096 tokens, refilled at 100 a second) lands once the
// bucket is full, leaving it in debt, instead of being throttled however
// long the client backs off; the debt then throttles the next batch.
func TestOversizeWriteBatchAdmitted(t *testing.T) {
	eachEndpoint(t, Config{WriteRate: 100}, genRecords(1_000, 41), func(t *testing.T, ep *served) {
		cl, rv := dialView(t, ep, "")
		big := freshRecords(5_000, 1<<32)
		if n, err := rv.Append(big); err != nil || n != len(big) {
			t.Fatalf("Append of %d records at a full bucket = (%d, %v), want all of them", len(big), n, err)
		}
		if err := appendOnce(cl, rv, freshRecords(10, 2<<32)); !IsWriteThrottled(err) {
			t.Fatalf("append behind a 904-token debt: err = %v, want CodeWriteThrottled", err)
		}
	})
}

// TestWriteRateAdmission: a batch over its tenant's write tokens is refused
// with CodeWriteThrottled before any of it lands; RemoteView.Append retries
// it until the refill catches up and it lands exactly once; and a tenant's
// connections draw on one bucket, another tenant's bucket being its own.
func TestWriteRateAdmission(t *testing.T) {
	base := genRecords(1_000, 43)
	eachEndpoint(t, Config{WriteRate: 500}, base, func(t *testing.T, ep *served) {
		_, av := dialView(t, ep, "acme")
		b, bv := dialView(t, ep, "acme")
		_, ov := dialView(t, ep, "other")
		served := func(want int) {
			t.Helper()
			rs, err := ov.Query(record.FullBox(1))
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			seen := map[uint64]bool{}
			for _, r := range drainAll(t, rs) {
				if seen[r.Seq] {
					t.Fatalf("record seq %d served twice", r.Seq)
				}
				seen[r.Seq] = true
			}
			if len(seen) != want {
				t.Fatalf("stream served %d records, want %d", len(seen), want)
			}
		}

		// The full bucket (4096 tokens) admits 5,000 records and owes 904,
		// which the tenant's other connection meets: at 500 tokens a second
		// its 10 records wait 1.8 s, so the wire refuses them whole.
		debt := freshRecords(5_000, 1<<32)
		if n, err := av.Append(debt); err != nil || n != len(debt) {
			t.Fatalf("Append at a full bucket = (%d, %v), want %d", n, err, len(debt))
		}
		late := freshRecords(10, 2<<32)
		if err := appendOnce(b, bv, late); !IsWriteThrottled(err) {
			t.Fatalf("append on the indebted tenant's second connection: err = %v, want CodeWriteThrottled", err)
		}
		if n, err := ov.Append(freshRecords(10, 3<<32)); err != nil || n != 10 {
			t.Fatalf("another tenant's append = (%d, %v), want its own full bucket", n, err)
		}
		served(len(base) + len(debt) + 10)

		// Append backs off (here 0.5 s a step, well inside the retry budget)
		// until the refill repays the debt, and the batch lands once.
		b.mu.Lock()
		b.sleep = func(time.Duration) { time.Sleep(500 * time.Millisecond) }
		b.mu.Unlock()
		if n, err := bv.Append(late); err != nil || n != len(late) {
			t.Fatalf("retried Append = (%d, %v), want %d", n, err, len(late))
		}
		if b.Retries() == 0 {
			t.Fatal("the throttled batch landed without a retry")
		}
		served(len(base) + len(debt) + 10 + len(late))
	})
}
