package fleet

import (
	"fmt"
	"io"
	"testing"

	"sampleview/internal/record"
	"sampleview/internal/server"
)

// hostingReplica finds the replica currently holding the test's only
// routed stream leg.
func hostingReplica(t *testing.T, tf *testFleet) int {
	t.Helper()
	for i, srv := range tf.replicas {
		if srv.Snapshot().OpenStreams > 0 {
			return i
		}
	}
	t.Fatal("no replica is hosting the stream")
	return -1
}

// TestLiveStreamMigration is the fleet's headline invariant, table-driven:
// kill the replica serving a stream when the client has consumed exactly
// killAt records, and the resumed stream — transparently reopened by the
// router on a surviving replica at the same (seed, position) — must
// deliver a total sequence byte-identical to an uninterrupted local stream
// over the same view bytes: no gap, no duplicate, no reordering. Every kill
// point runs on fleets of 2, 3 and 4 replicas; the three-replica rows keep
// their names.
func TestLiveStreamMigration(t *testing.T) {
	for _, replicas := range []int{2, 3, 4} {
		for _, killAt := range []int{0, 1, 137, 1024, 2500} {
			name := fmt.Sprintf("killAt=%d", killAt)
			if replicas != 3 {
				name += fmt.Sprintf(",replicas=%d", replicas)
			}
			t.Run(name, func(t *testing.T) { migrateAt(t, replicas, killAt) })
		}
	}
}

// migrateAt is one TestLiveStreamMigration row: a fleet of replicas, killed
// under a stream killAt records in.
func migrateAt(t *testing.T, replicas, killAt int) {
	recs := genRecords(6000, 21)
	q := record.Box1D(0, 1<<19)
	const seed = 0xca11ab1e
	tf := startFleet(t, replicas, recs, server.Config{MaxStreams: 64}, nil)
	want := localSeeded(t, tf.views[0], q, seed)
	if killAt >= len(want) {
		t.Fatalf("kill position %d beyond sequence length %d; bad test setup", killAt, len(want))
	}

	cl := dialRouter(t, tf)
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rv.QueryAt(q, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs.SetBatchSize(64)

	got := make([]record.Record, 0, len(want))
	for len(got) < killAt {
		rec, err := rs.Next()
		if err != nil {
			t.Fatalf("pre-kill pull failed after %d records: %v", len(got), err)
		}
		got = append(got, rec)
	}

	victim := hostingReplica(t, tf)
	tf.replicas[victim].Shutdown()

	for {
		rec, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("post-kill pull failed after %d records: %v", len(got), err)
		}
		got = append(got, rec)
	}

	if !sameRecords(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("resumed stream diverges from uninterrupted reference: got %d records, want %d, first mismatch at %d",
			len(got), len(want), i)
	}

	snap, err := cl.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Migrations == 0 {
		t.Fatal("router reports no migrations after the hosting replica was killed")
	}
	if snap.ReplicasLive != int64(replicas-1) {
		t.Fatalf("ReplicasLive = %d after kill, want %d", snap.ReplicasLive, replicas-1)
	}
}

// TestMigrationExhaustsGracefully: killing every replica but one, twice
// over, still resumes; killing all of them surfaces a typed or transport
// error rather than wrong data.
func TestMigrationChainsAcrossMultipleKills(t *testing.T) {
	recs := genRecords(6000, 23)
	q := record.Box1D(0, 1<<19)
	const seed = 0x2b
	tf := startFleet(t, 3, recs, server.Config{MaxStreams: 64}, nil)
	want := localSeeded(t, tf.views[0], q, seed)

	cl := dialRouter(t, tf)
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rv.QueryAt(q, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs.SetBatchSize(64)

	got := make([]record.Record, 0, len(want))
	kills := 0
	for {
		rec, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("pull failed after %d records (%d kills): %v", len(got), kills, err)
		}
		got = append(got, rec)
		// Kill the hosting replica twice, a third of the way apart.
		if kills < 2 && len(got) == (kills+1)*len(want)/3 {
			tf.replicas[hostingReplica(t, tf)].Shutdown()
			kills++
		}
	}
	if !sameRecords(got, want) {
		t.Fatalf("doubly-migrated stream diverges: got %d records, want %d", len(got), len(want))
	}
}
