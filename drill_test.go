package sampleview_test

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"sampleview"
	"sampleview/internal/iosim"
	"sampleview/internal/oracle"
	"sampleview/internal/record"
	"sampleview/internal/server"
)

// TestServedFaultLadder serves views over loopback and drives closed-loop
// readers, and on some views writers, at them under the storage-fault
// profiles, checking everything served with the prefix oracle. Every row
// holds this contract:
//   - no oracle violation, and a stream that drains without losing a leaf
//     serves every match not in flight;
//   - transient-only profiles are invisible: no reader or writer error, and
//     every op's prefix passes at oracle.Alpha;
//   - lossy profiles (corrupt or dead pages) fail only through typed
//     degraded errors, and an op that met none still passes at oracle.Alpha;
//   - the profile's fault class fired. Each row ends with one full-box
//     drain, which reads every leaf, so no row passes vacuously.
//
// A sharded view ends by killing a shard (shardKill). The connect row runs
// mixed read and write traffic across two tenants on an unfaulted view.
func TestServedFaultLadder(t *testing.T) {
	ingest := []string{"none", "flaky-disk", "hell"}
	for _, c := range []struct {
		k, readers, writers int
		profiles            []string
	}{
		{1, 4, 0, iosim.Profiles()}, {4, 3, 0, iosim.Profiles()},
		{1, 3, 2, ingest}, {3, 3, 2, ingest},
	} {
		t.Run(fmt.Sprintf("K=%d,writers=%d", c.k, c.writers), func(t *testing.T) {
			recs := oracleRecs(20_000, 1)
			v, src := drillView(t, recs, c.k)
			d := drill{readers: c.readers, writers: c.writers, samples: 500, model: oracle.NewModel(recs)}
			for i, name := range c.profiles {
				t.Run(name, func(t *testing.T) {
					plan, err := sampleview.FaultProfile(name, 1)
					if err != nil {
						t.Fatal(err)
					}
					was := v.Stats().Faults
					v.InjectFaults(plan)
					defer v.InjectFaults(sampleview.FaultPlan{})
					// Each profile writes keys of its own.
					d.addr, d.writeSeed = serveSource(t, src), uint64(i)
					degraded := d.run(t, plan.CorruptRate > 0 || plan.StickyRate > 0)
					now := v.Stats().Faults
					t.Logf("faults %+v, degraded errors %d", now, degraded)
					if !fired(plan, was, now, degraded) {
						t.Errorf("profile %s: its fault class never fired (faults before %+v, after %+v, degraded errors %d)", name, was, now, degraded)
					}
				})
			}
			if sv, ok := v.(*sampleview.ShardedView); ok {
				t.Run("shard-kill", func(t *testing.T) { d.shardKill(t, sv, src, recs) })
			}
		})
	}
	t.Run("connect", func(t *testing.T) {
		recs := oracleRecs(20_000, 2)
		_, src := drillView(t, recs, 1)
		d := drill{addr: serveSource(t, src), readers: 8, writers: 4, tenants: 2, samples: 1000, model: oracle.NewModel(recs)}
		d.run(t, false)
	})
}

// fired reports whether plan's fault class shows between two fault-counter
// snapshots: a lost page or a degraded error on a lossy profile, a
// transient failure or a latency spike on the others, and nothing at all
// without a plan.
func fired(plan sampleview.FaultPlan, was, now sampleview.FaultCounters, degraded int64) bool {
	switch {
	case plan.CorruptRate > 0 || plan.StickyRate > 0:
		return now.CorruptPages+now.DeadPages > was.CorruptPages+was.DeadPages || degraded > 0
	case plan.TransientRate > 0:
		return now.Transient > was.Transient
	case plan.LatencyRate > 0:
		return now.LatencySpikes > was.LatencySpikes
	}
	return now == was
}

// faultable is the surface the ladder needs of a view, unsharded or not.
type faultable interface {
	InjectFaults(sampleview.FaultPlan)
	Stats() sampleview.IOStats
}

// drillView builds recs into a view of k shards (unsharded for k = 1) and
// returns it beside the source a server serves it through.
func drillView(t *testing.T, recs []record.Record, k int) (faultable, server.ViewSource) {
	t.Helper()
	dir := t.TempDir()
	if k == 1 {
		v, err := sampleview.CreateFromSlice(filepath.Join(dir, "drill.view"), recs, sampleview.Options{Seed: 1, DiskModel: oracleSim().Model()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		return v, server.LocalSource(v)
	}
	v, err := sampleview.CreateSharded(filepath.Join(dir, "drill.shards"), recs, sampleview.ShardedOptions{K: k, Seed: 1, Model: oracleSim().Model()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v, server.ShardedSource(v)
}

// serveSource serves src as view "sale" until the test ends.
func serveSource(t *testing.T, src server.ViewSource) string {
	srv := server.New(server.Config{})
	srv.AddSource("sale", src)
	return serve(t, srv, srv.Shutdown)
}

// writeBatch is how many records a drill writer appends at once.
const writeBatch = 64

// drill is one closed-loop run against the server at addr: readers each
// run three ops, one per selectivity of the paper's mix, of samples
// records, while writers churn the view until the last reader finishes.
type drill struct {
	addr                      string
	readers, writers, tenants int
	samples                   int
	writeSeed                 uint64
	model                     *oracle.Model // writes are pending in it before they are sent
	killed                    bool          // the model has deleted the base records a dead shard held
	// seqs hands every writer batch a fresh block of Seqs above the base
	// relation's, so a deleted Seq is never written again.
	seqs atomic.Uint64
}

// open opens the served view for client i, attributed to tenant i modulo
// the drill's tenants when it has any.
func (d *drill) open(t *testing.T, i int) *server.RemoteView {
	tenant := ""
	if d.tenants > 0 {
		tenant = fmt.Sprintf("tenant-%d", i%d.tenants)
	}
	return openRemote(t, d.addr, tenant)
}

// run drives the readers and writers to completion, then drains the full
// box once, and returns the typed degraded errors the ops met.
func (d *drill) run(t *testing.T, lossy bool) int64 {
	var degraded atomic.Int64
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for c := range d.readers {
		rv := d.open(t, c)
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 1000003))
			for _, sel := range []float64{0.0025, 0.025, 0.25} {
				width := int64(sel * (1 << 20))
				lo := rng.Int64N(1<<20 - width + 1)
				degraded.Add(d.op(t, rv, record.Box1D(lo, lo+width-1), d.samples, lossy))
			}
		}()
	}
	for w := range d.writers {
		rv := d.open(t, w)
		writers.Add(1)
		go func() {
			defer writers.Done()
			d.write(t, rv, w, lossy, stop)
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	return degraded.Load() + d.op(t, d.open(t, 0), record.FullBox(1), math.MaxInt, lossy)
}

// op opens one stream of q, checks the first n records it serves and
// returns the typed degraded errors it met, which only a lossy profile may
// raise. An op that met none must pass at oracle.Alpha.
func (d *drill) op(t *testing.T, rv *server.RemoteView, q record.Box, n int, lossy bool) int64 {
	s, err := rv.Query(q)
	if err != nil {
		t.Errorf("%v: open: %v", q, err)
		return 0
	}
	defer s.Close()
	ck := oracle.NewChecker(d.samples)
	o := ck.Stream(d.model, q)
	var degraded int64
	for got := 0; got < n; {
		recs, err := s.NextBatch()
		switch {
		case err == io.EOF:
			if degraded == 0 || d.killed {
				o.Drained()
			}
			n = got
		case lossy && server.IsDegraded(err) && degraded < 1000:
			degraded++
		case err != nil:
			t.Errorf("%v: after %d records and %d degraded errors: %v", q, got, degraded, err)
			n = got
		default:
			o.Add(recs...)
			got += len(recs)
		}
	}
	for _, bad := range ck.Violations() {
		t.Errorf("%v: %s", q, bad)
	}
	if v := ck.Verdicts()[0]; degraded == 0 && v.Tested && v.P < oracle.Alpha {
		t.Errorf("%v: prefix of %d not uniform (p=%.3g)", q, v.N, v.P)
	}
	return degraded
}

// write churns the view until stop closes, after one batch at least: it
// appends writeBatch fresh records, pending in the model before they are
// sent, tombstones the first half of every third batch and flushes every
// fifth, so memview swaps, flushes and compactions race the readers. A
// writer error fails the row unless the profile is lossy, where a flush
// may meet a dead page.
func (d *drill) write(t *testing.T, rv *server.RemoteView, w int, lossy bool, stop <-chan struct{}) {
	rng := rand.New(rand.NewPCG(d.writeSeed, uint64(w)))
	for iter := 0; ; iter++ {
		base := 1<<40 + d.seqs.Add(writeBatch) - writeBatch
		batch := make([]record.Record, writeBatch)
		for i := range batch {
			batch[i] = record.Record{Key: rng.Int64N(1 << 20), Amount: rng.Int64N(1 << 20), Seq: base + uint64(i)}
		}
		d.model.Pending(batch...)
		_, err := rv.Append(batch)
		if err == nil && iter%3 == 2 {
			_, err = rv.Delete(batch[:writeBatch/2])
		}
		if err == nil && iter%5 == 4 {
			_, err = rv.Flush()
		}
		if err != nil && lossy {
			t.Logf("writer %d on a lossy profile: %v", w, err)
			return
		}
		if err != nil {
			t.Errorf("writer %d: %v", w, err)
			return
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

// shardKill kills v's last shard and drains the full box over the wire:
// typed degraded errors only, none of the dead shard's base records, and
// every other match not in flight. Written records stay pending, since an
// unflushed one sits in the dead shard's memview, which a storage kill
// does not touch. It is a view's last row, so the shard stays dead.
func (d *drill) shardKill(t *testing.T, v *sampleview.ShardedView, src server.ViewSource, base []record.Record) {
	dead := v.K() - 1
	for _, r := range base {
		if v.Route(r) == dead {
			d.model.Delete(r)
		}
	}
	v.KillShard(dead)
	d.addr, d.killed = serveSource(t, src), true
	if d.op(t, d.open(t, 0), record.FullBox(1), math.MaxInt, true) == 0 {
		t.Error("the killed shard raised no degraded error")
	}
}
