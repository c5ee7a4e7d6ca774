package fleet

import (
	"fmt"
	"testing"

	"sampleview/internal/record"
	"sampleview/internal/server"
)

// placementRouter is a router over n replicas as placement sees them: all
// alive, each capped at maxStr streams, none dialed.
func placementRouter(n, maxStr int) *Router {
	r := &Router{ring: newRing(n)}
	for i := 0; i < n; i++ {
		r.reps = append(r.reps, &replica{addr: fmt.Sprintf("replica-%d", i), alive: true, maxStr: maxStr})
	}
	return r
}

// placeOne counts one more stream for key on the replica placement tries
// first, and returns that replica's index.
func placeOne(t *testing.T, r *Router, key string) int {
	t.Helper()
	cands := r.aliveFor(key)
	if len(cands) == 0 {
		t.Fatalf("no candidate replica for %q", key)
	}
	cands[0].streams++
	for i, rep := range r.reps {
		if rep == cands[0] {
			return i
		}
	}
	panic("candidate is not one of the router's replicas")
}

// TestPlacementSpreadsTwoTenants: the ring gives (tenant-0, sale) and
// (tenant-1, sale) the same owner, yet one stream each, opened through a
// router over two replicas, lands on different replicas.
func TestPlacementSpreadsTwoTenants(t *testing.T) {
	tf := startFleet(t, 2, genRecords(1000, 21), server.Config{MaxStreams: 64}, nil)
	r := tf.router
	if a, b := r.ring.walk("tenant-0/sale")[0], r.ring.walk("tenant-1/sale")[0]; a != b {
		t.Fatalf("the two keys have owners %d and %d; the test needs them to share one", a, b)
	}
	for _, tenant := range []string{"tenant-0", "tenant-1"} {
		cl := dialRouter(t, tf)
		if err := cl.SetTenant(tenant); err != nil {
			t.Fatal(err)
		}
		rv, err := cl.OpenView("sale")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rv.Query(record.FullBox(1)); err != nil {
			t.Fatal(err)
		}
	}
	for i, rep := range r.reps {
		rep.mu.Lock()
		n := rep.streams
		rep.mu.Unlock()
		if n != 1 {
			t.Fatalf("replica %d holds %d streams, want one stream per replica", i, n)
		}
	}
}

// TestPlacementOwnerKeepsItsShare: a key's owner takes the key's streams for
// as long as it holds fewer than the next stream's even share, and not one
// more.
func TestPlacementOwnerKeepsItsShare(t *testing.T) {
	r := placementRouter(2, 64)
	const key = "tenant-0/sale"
	owner := r.ring.walk(key)[0]
	r.reps[1-owner].streams = 6
	for i := 0; i < 7; i++ {
		if got := placeOne(t, r, key); got != owner {
			t.Fatalf("stream %d went to replica %d while the owner held %d of 13 streams' share 7", i, got, i)
		}
	}
	if got := placeOne(t, r, key); got == owner {
		t.Fatal("the owner took an eighth stream past its share of 7")
	}
}

// TestPlacementPassesOverReplicaAtCap: a replica at its own stream cap goes
// behind one that has room, even when it is the key's owner and below its
// share.
func TestPlacementPassesOverReplicaAtCap(t *testing.T) {
	r := placementRouter(2, 64)
	const key = "tenant-0/sale"
	owner := r.ring.walk(key)[0]
	r.reps[owner].maxStr, r.reps[owner].streams = 1, 1
	r.reps[1-owner].streams = 1
	if got := placeOne(t, r, key); got == owner {
		t.Fatal("placement chose the owner at its cap over a replica with room")
	}
}

// TestPlacementAfterMarkDead: once a replica is marked dead it is no
// candidate at all, and every stream lands on the survivors.
func TestPlacementAfterMarkDead(t *testing.T) {
	r := placementRouter(3, 64)
	const key = "tenant-0/sale"
	dead := r.ring.walk(key)[0]
	r.markDead(r.reps[dead])
	for i := 0; i < 12; i++ {
		if got := placeOne(t, r, fmt.Sprintf("tenant-%d/sale", i%4)); got == dead {
			t.Fatalf("stream %d placed on dead replica %d", i, dead)
		}
		if n := len(r.aliveFor(key)); n != 2 {
			t.Fatalf("%d candidates after one of 3 replicas died, want 2", n)
		}
	}
	for i, rep := range r.reps {
		if i != dead && rep.streams != 6 {
			t.Fatalf("survivor %d holds %d of 12 streams, want 6", i, rep.streams)
		}
	}
}
