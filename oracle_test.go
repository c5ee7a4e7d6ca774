package sampleview_test

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"sampleview"
	"sampleview/internal/btree"
	"sampleview/internal/core"
	"sampleview/internal/fleet"
	"sampleview/internal/iosim"
	"sampleview/internal/oracle"
	"sampleview/internal/pagefile"
	"sampleview/internal/permfile"
	"sampleview/internal/record"
	"sampleview/internal/rtree"
	"sampleview/internal/server"
	"sampleview/internal/workload"
)

// TestPrefixOracle is the uniformity table: every sampling path, checked by
// the one oracle. Each row builds independent structures (the randomness of
// a stream lives mostly in its structure's build), hands every stream to
// one oracle.Checker, and requires no violation and every tested cut to
// pass at oracle.Alpha. at is a prefix length each row is cut at beside
// oracle.Cuts, and min the fewest records the row must pool there. The
// write-path rows whose fixtures need package internals sit in
// internal/lsm, the merge operator's in internal/interleave and the K-way
// merge's in internal/shard.
//
// core's stream emits each stab in stored order, so its rows shuffle every
// stab as each caller above core does (lsm and shard) before the oracle
// sees it; without that shuffle its mid-stab prefixes lean (knownDefect).
func TestPrefixOracle(t *testing.T) {
	for _, r := range []struct {
		name     string
		at       int
		min      int64
		run      func(t *testing.T, ck *oracle.Checker)
		verdicts bool // false: one structure, so record-level checks only
	}{
		{"core/prefix", 60, 12_000, func(t *testing.T, ck *oracle.Checker) {
			coreRow(t, ck, corePrefix, core.StreamOptions{}, true)
		}, true},
		{"core/key-space", 40, 6000, func(t *testing.T, ck *oracle.Checker) {
			coreRow(t, ck, coreConfig{2000, 78, record.Box1D(workload.KeyDomain/10, workload.KeyDomain*9/10), 150, 1000, core.Params{Height: 6}}, core.StreamOptions{}, true)
		}, true},
		{"core/kd-2d", 40, 6000, func(t *testing.T, ck *oracle.Checker) {
			coreRow(t, ck, coreConfig{1200, 24, record.Box2D(0, workload.KeyDomain*2/3, 0, workload.KeyDomain*2/3), 150, 1000, core.Params{Height: 5, Dims: 2}}, core.StreamOptions{}, true)
		}, true},
		{"btree/sampler", 10, 3000, btreeRow, true},
		{"rtree/sampler", 1, 40 * 157, rtreeRow, true},
		{"permfile/scan", 4000, 4000, permfileRow, true},
		{"root/mmap-under-faults", 30, 3000, mmapFaultRow, true},
		{"shard4/zipfian", 1000, 50_000, func(t *testing.T, ck *oracle.Checker) {
			shardedRow(t, ck, workload.Zipf, 1)
		}, true},
		{"shard4/clustered", 1000, 50_000, func(t *testing.T, ck *oracle.Checker) {
			shardedRow(t, ck, workload.Clustered, 1)
		}, true},
		{"shard4/2d-view", 1000, 50_000, func(t *testing.T, ck *oracle.Checker) {
			shardedRow(t, ck, workload.Uniform, 2)
		}, true},
		{"root/recovered-after-power-cut", 1000, 20_000, recoveredRow, true},
		{"server/served-equals-local", 0, 0, servedRow, false},
		{"fleet/plain-query", 0, 0, fleetPlainRow, false},
		{"fleet/across-migration", 100, 2000, fleetMigrationRow, true},
	} {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			cuts := oracle.Cuts
			if !slices.Contains(cuts, r.at) {
				cuts = append(slices.Clone(cuts), r.at)
			}
			ck := oracle.NewChecker(cuts...)
			r.run(t, ck)
			if !r.verdicts {
				if bad := ck.Violations(); len(bad) > 0 {
					t.Fatal(bad)
				}
				return
			}
			if err := ck.Err(); err != nil {
				t.Fatal(err)
			}
			if v := ck.Verdicts()[slices.Index(cuts, r.at)]; !v.Tested || v.N < r.min {
				t.Fatalf("cut %d pooled %d records (tested %v), want at least %d", v.Cut, v.N, v.Tested, r.min)
			}
		})
	}
	knownDefect(t)
}

// knownDefect pins the configurations the oracle rejects. The unsharded
// root view over an empty write path serves its base without a per-stab
// shuffle: on a 25% predicate at the low end of the domain, the first 1000
// records of a stream lean toward low ranks. Beside it the one-partition
// sharded view and the reference shuffle pass at the same configuration.
// Making the root path shuffle per stab inverts the first assertion. One
// layer down, core's own stream read record by record leans the same way.
func knownDefect(t *testing.T) {
	recs := oracleRecs(20_000, 9)
	m, q := oracle.NewModel(recs), record.Box1D(0, 1<<18-1)
	const builds = 50
	type view interface {
		Query(record.Box) (*sampleview.Stream, error)
		Close() error
	}
	for _, c := range []struct {
		name   string
		build  func(seed uint64) (view, error)
		reject bool
	}{
		{"root-mid-stab-cut-1000", func(seed uint64) (view, error) {
			v, err := sampleview.CreateFromSlice("", recs, sampleview.Options{Seed: seed})
			return v, err
		}, true},
		{"control-sharded-k1", func(seed uint64) (view, error) {
			v, err := sampleview.CreateSharded("", recs, sampleview.ShardedOptions{K: 1, Seed: seed})
			return v, err
		}, false},
		{"control-shuffle", nil, false},
	} {
		t.Run("known-defect/"+c.name, func(t *testing.T) {
			t.Parallel()
			ck := oracle.NewChecker()
			for b := range uint64(builds) {
				got := m.Shuffle(q, b)[:1000]
				if c.build != nil {
					v, err := c.build(100 + b)
					if err != nil {
						t.Fatal(err)
					}
					s, err := v.Query(q)
					if err == nil {
						got, err = s.Sample(1000)
					}
					if err != nil {
						t.Fatal(err)
					}
					s.Close()
					v.Close()
				}
				ck.Stream(m, q).Add(got...)
			}
			v := ck.Verdicts()[3]
			if bad := ck.Violations(); len(bad) > 0 || v.Cut != 1000 || !v.Tested || v.N != builds*1000 {
				t.Fatalf("violations %v, verdict %+v: want cut 1000 over %d records", bad, v, builds*1000)
			}
			if rejected := v.P < oracle.Alpha; rejected != c.reject {
				t.Fatalf("cut 1000: p=%g over %d records, want a rejection: %v", v.P, v.N, c.reject)
			}
		})
	}
	t.Run("known-defect/core-mid-stab-cut-60", func(t *testing.T) {
		t.Parallel()
		// core/prefix's relation and builds, each stab left in stored order:
		// the first 60 records of a stream cut its second stab.
		ck := oracle.NewChecker(60)
		coreRow(t, ck, corePrefix, core.StreamOptions{}, false)
		if v := ck.Verdicts()[0]; !v.Tested || v.N != 60*int64(corePrefix.builds) || v.P >= oracle.Alpha {
			t.Fatalf("core mid-stab at cut 60: %+v, want a rejection over %d records", v, 60*corePrefix.builds)
		}
	})
}

// oracleRecs is n records with uniform keys over [0, 2^20) and Seqs 0..n-1.
func oracleRecs(n int, seed uint64) []record.Record {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: rng.Int64N(1 << 20), Amount: rng.Int64N(1 << 20), Seq: uint64(i)}
	}
	return recs
}

type nexter interface {
	Next() (record.Record, error)
}

// feed pulls up to n records from s into o, retrying transient faults, and
// reports a stream that ends first as drained.
func feed(t *testing.T, s nexter, o *oracle.Stream, n int) {
	t.Helper()
	for got := 0; got < n; {
		rec, err := s.Next()
		switch {
		case err == io.EOF:
			o.Drained()
			return
		case sampleview.IsTransient(err):
			continue
		case err != nil:
			t.Fatal(err)
		}
		o.Add(rec)
		got++
	}
}

// oracleSim is a simulated disk of 4 KiB pages, the page the in-package
// structures' own tests build on.
func oracleSim() *iosim.Sim {
	m := iosim.DefaultModel()
	m.PageSize = 4096
	return iosim.New(m)
}

// relation generates n records of dist on sim and returns them beside the
// item file the in-package structures build from.
func relation(t *testing.T, sim *iosim.Sim, n int64, dist workload.Distribution, seed uint64) (*pagefile.ItemFile, []record.Record) {
	t.Helper()
	rel, err := workload.GenerateRelation(sim, n, dist, seed)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.CollectMatching(rel, record.FullBox(2))
	if err != nil {
		t.Fatal(err)
	}
	return rel, recs
}

// coreConfig is one relation of n uniform records, a predicate, and the
// build seeds and tree shape the ACE trees over it take.
type coreConfig struct {
	n      int64
	seed   uint64
	q      record.Box
	builds int
	seed0  uint64
	p      core.Params
}

var corePrefix = coreConfig{1500, 77, record.Box1D(workload.KeyDomain/5, workload.KeyDomain*3/5), 200, 1000, core.Params{Height: 5}}

// coreRow builds an ACE tree per build seed and reads each stream stab by
// stab, shuffling each stab's records first when shuffle is set.
func coreRow(t *testing.T, ck *oracle.Checker, c coreConfig, opts core.StreamOptions, shuffle bool) {
	sim := oracleSim()
	rel, recs := relation(t, sim, c.n, workload.Uniform, c.seed)
	m := oracle.NewModel(recs)
	if n := len(m.Shuffle(c.q, 0)); n < 100 {
		t.Fatalf("%d matches; the row needs 100", n)
	}
	for b := range c.builds {
		c.p.Seed = c.seed0 + uint64(b)
		tree, err := core.Create(pagefile.NewMem(sim), rel, c.p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tree.QueryWithOptions(c.q, opts)
		if err != nil {
			t.Fatal(err)
		}
		o, rng := ck.Stream(m, c.q), rand.New(rand.NewPCG(c.p.Seed, 0))
		for {
			batch, err := s.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if shuffle {
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			}
			o.Add(batch...)
		}
		o.Drained()
	}
}

func btreeRow(t *testing.T, ck *oracle.Checker) {
	sim := oracleSim()
	rel, recs := relation(t, sim, 2000, workload.Uniform, 7)
	tree, err := btree.Build(pagefile.NewMem(sim), rel, pagefile.NewPool(4096), 16)
	if err != nil {
		t.Fatal(err)
	}
	r := record.Range{Lo: workload.KeyDomain / 4, Hi: workload.KeyDomain / 2}
	m, rng := oracle.NewModel(recs), rand.New(rand.NewPCG(2, 2))
	for range 300 {
		s, err := tree.NewSampler(r, rng)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, ck.Stream(m, record.NewBox(r)), 100)
	}
}

func rtreeRow(t *testing.T, ck *oracle.Checker) {
	sim := oracleSim()
	q := record.Box2D(0, workload.KeyDomain/2, 0, workload.KeyDomain/2)
	rel, recs := relation(t, sim, 600, workload.Uniform, 4)
	m := oracle.NewModel(recs)
	matches := len(m.Shuffle(q, 0))
	if matches < 20 {
		t.Fatalf("%d matches; the row needs 20", matches)
	}
	tree, err := rtree.Build(pagefile.NewMem(sim), rel, pagefile.NewPool(4096), 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	for range 40 * matches {
		s, err := tree.NewSampler(q, rng)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, ck.Stream(m, q), 1)
	}
}

// permfileRow: the permuted file's one scan, whose order is drawn once when
// the file is built.
func permfileRow(t *testing.T, ck *oracle.Checker) {
	sim := oracleSim()
	rel, recs := relation(t, sim, 20_000, workload.Uniform, 4)
	pf, err := permfile.Build(pagefile.NewMem(sim), rel, 16, 104)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, pf.Query(record.FullBox(1)), ck.Stream(oracle.NewModel(recs), record.FullBox(1)), 4000)
}

// mmapFaultRow reopens each build through the mmap backend with the
// flaky-disk profile active.
func mmapFaultRow(t *testing.T, ck *oracle.Checker) {
	recs := oracleRecs(2500, 7)
	m, q := oracle.NewModel(recs), record.Box1D(1<<18, 3<<19)
	plan, err := sampleview.FaultProfile("flaky-disk", 42)
	if err != nil {
		t.Fatal(err)
	}
	disk := iosim.DefaultModel()
	disk.PageSize = 2048
	var transient int64
	for b := range uint64(100) {
		path := filepath.Join(t.TempDir(), "trial.sv")
		v, err := sampleview.CreateFromSlice(path, recs, sampleview.Options{Seed: 1000 + b, DiskModel: disk})
		if err == nil {
			err = v.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		rv, err := sampleview.Open(path, sampleview.Options{DiskModel: disk, Faults: plan, Backend: sampleview.BackendMmap})
		if err != nil {
			t.Fatal(err)
		}
		s, err := rv.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, ck.Stream(m, q), 1000)
		transient += s.Stats().Faults.Transient
		s.Close()
		rv.Close()
	}
	if transient == 0 {
		t.Fatal("no fault fired in any build; the profile is inactive")
	}
}

// shardedRow builds a K = 4 sharded view over one relation of dist 50
// times, on a predicate holding the middle half of the relation's keys, or
// on a 2-d box.
func shardedRow(t *testing.T, ck *oracle.Checker, dist workload.Distribution, dims int) {
	_, recs := relation(t, oracleSim(), 5000, dist, 11)
	m, keys := oracle.NewModel(recs), make([]int64, len(recs))
	for i := range recs {
		keys[i] = recs[i].Key
	}
	slices.Sort(keys)
	q := record.Box1D(keys[len(keys)/4], keys[len(keys)*3/4])
	if dims == 2 {
		q = record.Box2D(0, workload.KeyDomain*3/4, workload.KeyDomain/4, workload.KeyDomain)
	}
	for b := range uint64(50) {
		v, err := sampleview.CreateSharded("", recs, sampleview.ShardedOptions{K: 4, Dims: dims, Seed: 500 + b})
		if err != nil {
			t.Fatal(err)
		}
		s, err := v.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, ck.Stream(m, q), 1000)
		s.Close()
		v.Close()
	}
}

// recoveredRow cuts power after a WAL append on each build, as the root
// crash tests do — acked inserts, a flushed level, an acked delete and a
// straggler never acked — and checks a drain of the recovered view.
func recoveredRow(t *testing.T, ck *oracle.Checker) {
	base := oracleRecs(1500, 21)
	writes := oracleRecs(121, 22)
	for b := range uint64(20) {
		m := oracle.NewModel(base)
		path := filepath.Join(t.TempDir(), "crash.sv")
		opts := sampleview.Options{Seed: 300 + b, WAL: true, WALSyncEvery: 1}
		v, err := sampleview.CreateFromSlice(path, base, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range writes {
			writes[i].Seq = 1<<40 + b<<20 + uint64(i)
		}
		for i, w := range writes[:120] {
			if err := v.Insert(w); err != nil {
				t.Fatal(err)
			}
			m.Pending(w)
			if i%60 < 59 {
				continue
			}
			// Each half of the writes is acked beside a delete of a base
			// record; the first half is then flushed to a level.
			victim := base[2*b+uint64(i/60)]
			if err := v.Delete(victim); err != nil {
				t.Fatal(err)
			}
			if err := v.Commit(); err != nil {
				t.Fatal(err)
			}
			m.Write(writes[i-59 : i+1]...)
			m.Delete(victim)
			if i == 59 {
				if err := v.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		v.InjectCrash(sampleview.CrashPlan{Point: sampleview.CrashPostWALAppend})
		if err := v.Insert(writes[120]); !sampleview.IsCrash(err) {
			t.Fatalf("insert across the power cut returned %v, want a crash error", err)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := sampleview.Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := re.Query(record.FullBox(1))
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, ck.Stream(m, record.FullBox(1)), len(base)+len(writes))
		s.Close()
		re.Close()
	}
}

// serve serves one endpoint on a loopback listener until the test ends.
func serve(t *testing.T, srv interface{ Serve(net.Listener) error }, shutdown func()) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(shutdown)
	return ln.Addr().String()
}

// startFleet serves recs from k byte-identical replicas behind a router.
func startFleet(t *testing.T, k int, recs []record.Record) (addr string, replicas []*server.Server) {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		v, err := sampleview.CreateFromSlice(filepath.Join(t.TempDir(), "replica.view"), recs, sampleview.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		srv := server.New(server.Config{MaxStreams: 64, ReplicaID: fmt.Sprintf("replica-%d", i)})
		srv.AddView("sale", v)
		addrs[i] = serve(t, srv, srv.Shutdown)
		replicas = append(replicas, srv)
	}
	router, err := fleet.New(fleet.Config{Replicas: addrs, Seed: 42})
	if err == nil {
		err = router.Connect()
	}
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, router, router.Shutdown), replicas
}

// openRemote opens view "sale" on a fresh connection, attributed to tenant
// unless it is empty.
func openRemote(t *testing.T, addr, tenant string) *server.RemoteView {
	t.Helper()
	cl, err := server.Dial(addr)
	if err == nil && tenant != "" {
		err = cl.SetTenant(tenant)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

// servedRow runs three concurrent sessions per predicate against one served
// view. Every served stream must equal, record for record, a local stream
// over the same stored view, and drain to the predicate's matches.
func servedRow(t *testing.T, ck *oracle.Checker) {
	recs := oracleRecs(12_000, 5)
	m := oracle.NewModel(recs)
	path := filepath.Join(t.TempDir(), "sale.view")
	v, err := sampleview.CreateFromSlice(path, recs, sampleview.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	srv := server.New(server.Config{MaxStreams: 64})
	srv.AddView("sale", v)
	addr := serve(t, srv, srv.Shutdown)
	var wg sync.WaitGroup
	errs := make(chan error, 18)
	for _, q := range []record.Box{
		record.Box1D(0, 1<<14), record.Box1D(0, 1<<18), record.Box1D(1<<18, 1<<19),
		record.Box1D(0, 1<<20), record.Box1D(-100, -1), record.FullBox(1),
	} {
		for range 3 {
			rv := openRemote(t, addr, "")
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- servedEqualsLocal(rv, path, q, ck.Stream(m, q))
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func servedEqualsLocal(rv *server.RemoteView, path string, q record.Box, o *oracle.Stream) error {
	remote, err := rv.Query(q)
	if err != nil {
		return err
	}
	lv, err := sampleview.Open(path, sampleview.Options{})
	if err != nil {
		return err
	}
	defer lv.Close()
	local, err := lv.Query(q)
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		rr, rerr := remote.Next()
		lr, lerr := local.Next()
		if rerr == io.EOF && lerr == io.EOF {
			o.Drained()
			return nil
		}
		if rerr != nil || lerr != nil || rr != lr {
			return fmt.Errorf("%v: record %d: remote %d (%v), local %d (%v)", q, i, rr.Seq, rerr, lr.Seq, lerr)
		}
		o.Add(rr)
	}
}

// fleetPlainRow drains an unseeded stream through the router.
func fleetPlainRow(t *testing.T, ck *oracle.Checker) {
	recs := oracleRecs(4000, 11)
	addr, _ := startFleet(t, 2, recs)
	q := record.Box1D(0, 1<<19)
	rs, err := openRemote(t, addr, "").Query(q)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, rs, ck.Stream(oracle.NewModel(recs), q), len(recs)+1)
}

// fleetMigrationRow builds a fleet of two replicas per build, pulls a
// seeded stream a third of the way, shuts the replica hosting it down and
// drains the rest through the router's live migration.
func fleetMigrationRow(t *testing.T, ck *oracle.Checker) {
	q := record.Box1D(0, 1<<19)
	for b := range uint64(20) {
		recs := oracleRecs(1500, 600+b)
		m := oracle.NewModel(recs)
		addr, replicas := startFleet(t, 2, recs)
		rs, err := openRemote(t, addr, "").QueryAt(q, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		o := ck.Stream(m, q)
		feed(t, rs, o, len(m.Shuffle(q, 0))/3)
		for _, srv := range replicas {
			if srv.Snapshot().OpenStreams > 0 {
				srv.Shutdown()
			}
		}
		feed(t, rs, o, len(recs)+1)
	}
}
