package shard

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sampleview/internal/core"
	"sampleview/internal/oracle"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// genRecords returns n records with uniform keys and unique Seq values.
func genRecords(n int, seed uint64) []record.Record {
	g := workload.NewGenerator(workload.Uniform, seed)
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = g.Next()
	}
	return recs
}

func matching(recs []record.Record, q record.Box) map[uint64]record.Record {
	m := make(map[uint64]record.Record)
	for i := range recs {
		if q.ContainsRecord(&recs[i]) {
			m[recs[i].Seq] = recs[i]
		}
	}
	return m
}

// drain pulls the stream to EOF, tolerating (and counting) shard errors.
func drain(t *testing.T, s *Stream) (map[uint64]record.Record, int) {
	t.Helper()
	got := make(map[uint64]record.Record)
	faults := 0
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return got, faults
		}
		if err != nil {
			var se *ShardError
			if !errors.As(err, &se) {
				t.Fatalf("stream error not a ShardError: %v", err)
			}
			faults++
			if faults > 1<<16 {
				t.Fatal("stream not making progress through faults")
			}
			continue
		}
		if _, dup := got[rec.Seq]; dup {
			t.Fatalf("record seq %d emitted twice", rec.Seq)
		}
		got[rec.Seq] = rec
	}
}

// TestShardedMatchesUnshardedSet: for each partitioning and a ladder of
// selectivities, a merged stream drains to exactly the matching set.
func TestShardedMatchesUnshardedSet(t *testing.T) {
	recs := genRecords(6000, 11)
	for _, part := range []Partition{HashBySeq, RangeByKey} {
		v, err := Create("", recs, Options{K: 4, Partition: part, Seed: 7, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		qg := workload.NewQueryGen(31)
		for _, sel := range []float64{0.0025, 0.025, 0.25} {
			q := qg.Range1D(sel)
			want := matching(recs, q)
			s, err := v.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, faults := drain(t, s)
			if faults != 0 {
				t.Fatalf("%v sel %v: %d unexpected faults", part, sel, faults)
			}
			if len(got) != len(want) {
				t.Fatalf("%v sel %v: drained %d records, want %d", part, sel, len(got), len(want))
			}
			for seq := range want {
				if _, ok := got[seq]; !ok {
					t.Fatalf("%v sel %v: matching record seq %d missing", part, sel, seq)
				}
			}
		}
		v.Close()
	}
}

// TestKWayPrefixOracle: at K ∈ {1, 4, 16}, the prefixes of a merged
// stream pass the prefix oracle across low, medium and high selectivities.
// The sample order lives in the construction plus the merge draws, so each
// trial builds afresh (alternating hash and range partitioning, since range
// shards correlate with key rank) and opens one stream per predicate; each
// predicate pools its own 120 streams per K. Beside oracle.Cuts, each is
// cut at a third of its matches, at most 40.
func TestKWayPrefixOracle(t *testing.T) {
	recs := genRecords(4000, 13)
	m := oracle.NewModel(recs)
	qg := workload.NewQueryGen(37)
	var queries []record.Box
	for _, sel := range []float64{0.0025, 0.025, 0.25} {
		queries = append(queries, qg.Range1D(sel))
	}
	const trials = 120
	for _, k := range []int{1, 4, 16} {
		checkers := make([]*oracle.Checker, len(queries))
		for qi, q := range queries {
			checkers[qi] = oracle.NewChecker(append(slices.Clone(oracle.Cuts), min(max(len(m.Shuffle(q, 0))/3, 2), 40))...)
		}
		for trial := range trials {
			part := HashBySeq
			if trial%2 == 1 {
				part = RangeByKey
			}
			v, err := Create("", recs, Options{K: k, Partition: part, Seed: uint64(1000*k + trial), Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				s, err := v.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				sample, err := s.Sample(1000)
				if err != nil {
					t.Fatal(err)
				}
				o := checkers[qi].Stream(m, q)
				if o.Add(sample...); len(sample) < 1000 {
					o.Drained()
				}
				s.Close()
			}
			v.Close()
		}
		for qi, ck := range checkers {
			if err := ck.Err(); err != nil {
				t.Fatalf("K=%d, predicate %d: %v", k, qi, err)
			}
			// The predicate's own cut pools every trial's prefix.
			if v := ck.Verdicts()[len(oracle.Cuts)]; !v.Tested || v.N != trials*int64(v.Cut) {
				t.Fatalf("K=%d, predicate %d: cut %d pooled %d records (tested %v), want %d", k, qi, v.Cut, v.N, v.Tested, trials*v.Cut)
			}
		}
	}
}

// TestBuildBytesStableAcrossParallelism: the stored shard files are
// byte-identical at every Parallelism setting, and the streams drawn from
// the reopened views have equal prefixes.
func TestBuildBytesStableAcrossParallelism(t *testing.T) {
	recs := genRecords(4000, 17)
	dirs := []string{t.TempDir(), t.TempDir()}
	pars := []int{1, 8}
	views := make([]*View, 2)
	for i := range dirs {
		v, err := Create(dirs[i], recs, Options{K: 4, Seed: 5, Parallelism: pars[i]})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	for i := 0; i < 4; i++ {
		name := ShardFile(i)
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between Parallelism=%d and Parallelism=%d builds", name, pars[0], pars[1])
		}
	}
	q := record.Box1D(0, workload.KeyDomain/3)
	var prefixes [2][]record.Record
	for i, v := range views {
		s, err := v.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		prefixes[i], err = s.Sample(200)
		if err != nil {
			t.Fatal(err)
		}
		v.Close()
	}
	if len(prefixes[0]) != len(prefixes[1]) {
		t.Fatalf("prefix lengths differ: %d vs %d", len(prefixes[0]), len(prefixes[1]))
	}
	for i := range prefixes[0] {
		if prefixes[0][i] != prefixes[1][i] {
			t.Fatalf("prefix diverges at %d: seq %d vs %d", i, prefixes[0][i].Seq, prefixes[1][i].Seq)
		}
	}
}

// TestShardDeathDegrades: killing one shard surfaces typed per-shard
// DegradedErrors while the other shards' records are all still served.
func TestShardDeathDegrades(t *testing.T) {
	recs := genRecords(4000, 19)
	v, err := Create("", recs, Options{K: 4, Seed: 9, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	const dead = 2
	v.KillShard(dead)
	q := record.Box1D(0, workload.KeyDomain/2)
	s, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64]record.Record)
	sawDegraded := false
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var se *ShardError
			if !errors.As(err, &se) {
				t.Fatalf("error not a ShardError: %v", err)
			}
			var de *core.DegradedError
			if errors.As(err, &de) {
				if se.Shard != dead {
					t.Fatalf("degraded error on live shard %d: %v", se.Shard, err)
				}
				sawDegraded = true
			}
			continue
		}
		if v.Route(rec) == dead {
			t.Fatalf("record seq %d served from killed shard", rec.Seq)
		}
		got[rec.Seq] = rec
	}
	if !sawDegraded {
		t.Fatal("killed shard never surfaced a DegradedError")
	}
	for seq, rec := range matching(recs, q) {
		if v.Route(rec) == dead {
			continue
		}
		if _, ok := got[seq]; !ok {
			t.Fatalf("live-shard record seq %d missing after shard death", seq)
		}
	}
	st := s.Stats()
	if len(st.DegradedShards) != 1 || st.DegradedShards[0] != dead {
		t.Fatalf("DegradedShards = %v, want [%d]", st.DegradedShards, dead)
	}
	if st.DegradedLeaves == 0 {
		t.Fatal("stats report no degraded leaves")
	}
}

// TestAppendQueryCompact: appends route to their shard, join queries via
// the per-shard diff merge, and Compact folds them into the trees.
func TestAppendQueryCompact(t *testing.T) {
	recs := genRecords(3000, 23)
	dir := t.TempDir() + "/view"
	v, err := Create(dir, recs, Options{K: 3, Seed: 3, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	g := workload.NewGenerator(workload.Uniform, 99)
	appended := make([]record.Record, 120)
	for i := range appended {
		rec := g.Next()
		rec.Seq += 1 << 40 // disjoint from the base relation's Seq space
		appended[i] = rec
		v.Append(rec)
	}
	if got := v.PendingAppends(); got != len(appended) {
		t.Fatalf("PendingAppends = %d, want %d", got, len(appended))
	}
	all := append(append([]record.Record(nil), recs...), appended...)
	q := record.Box1D(0, workload.KeyDomain-1)
	s, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, faults := drain(t, s)
	if faults != 0 {
		t.Fatalf("%d unexpected faults", faults)
	}
	if len(got) != len(all) {
		t.Fatalf("pre-compact drain %d records, want %d", len(got), len(all))
	}
	rebuilt, err := v.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == 0 {
		t.Fatal("Compact rebuilt no shards despite pending appends")
	}
	if got := v.PendingAppends(); got != 0 {
		t.Fatalf("PendingAppends = %d after Compact, want 0", got)
	}
	s2, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got2, faults := drain(t, s2)
	if faults != 0 {
		t.Fatalf("%d unexpected faults post-compact", faults)
	}
	if len(got2) != len(all) {
		t.Fatalf("post-compact drain %d records, want %d", len(got2), len(all))
	}
}

// TestCreateOpenRoundTrip: a stored sharded view reopens from its manifest
// and serves the same matching set; the manifest reports its layout.
func TestCreateOpenRoundTrip(t *testing.T) {
	recs := genRecords(3000, 29)
	dir := t.TempDir() + "/view"
	v, err := Create(dir, recs, Options{K: 4, Partition: RangeByKey, Seed: 21, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	v.Close()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 4 || m.Partition != RangeByKey.String() {
		t.Fatalf("manifest reports K=%d partition=%v, want 4/range", m.K, m.Partition)
	}
	vo, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vo.Close()
	if vo.K() != 4 || vo.Partitioning() != RangeByKey {
		t.Fatalf("reopened view K=%d partition=%v", vo.K(), vo.Partitioning())
	}
	if vo.Count() != int64(len(recs)) {
		t.Fatalf("reopened Count = %d, want %d", vo.Count(), len(recs))
	}
	q := record.Box1D(0, workload.KeyDomain/4)
	want := matching(recs, q)
	s, err := vo.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, faults := drain(t, s)
	if faults != 0 {
		t.Fatalf("%d unexpected faults", faults)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened drain %d records, want %d", len(got), len(want))
	}
}

// TestFsckReportsPerShard: the scrub reports one entry per shard with
// nonzero I/O cost, and detects injected corruption on the poisoned shard.
func TestFsckReportsPerShard(t *testing.T) {
	recs := genRecords(2000, 31)
	dir := t.TempDir() + "/view"
	v, err := Create(dir, recs, Options{K: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	reports, err := v.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("fsck returned %d reports, want 3", len(reports))
	}
	for _, r := range reports {
		if r.Reads == 0 || r.Cost == 0 {
			t.Fatalf("shard %d fsck reports no I/O cost (%d reads, %v)", r.Shard, r.Reads, r.Cost)
		}
		if len(r.Faults) != 0 {
			t.Fatalf("clean shard %d reports faults: %v", r.Shard, r.Faults)
		}
	}
	// Flip a byte in shard 1's file (past the header page) and re-scrub.
	path := filepath.Join(dir, ShardFile(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ps := v.Farm().Model().PageSize
	if len(data) <= ps+100 {
		t.Fatalf("shard file too small to poison (%d bytes)", len(data))
	}
	data[ps+100] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reports, err = v.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	poisoned := 0
	for _, r := range reports {
		if len(r.Faults) > 0 {
			if r.Shard != 1 {
				t.Fatalf("corruption reported on wrong shard %d", r.Shard)
			}
			poisoned += len(r.Faults)
		}
	}
	if poisoned == 0 {
		t.Fatal("fsck missed the injected corruption")
	}
}

// TestShardSpeedsUpTimeToFirstSamples: per-stream simulated time to the
// first fixed number of samples drops as K grows (disks work in parallel).
func TestShardSpeedsUpTimeToFirstSamples(t *testing.T) {
	// A moderately selective query over a larger relation so reaching the
	// sample target takes many leaf reads (otherwise disk-time granularity
	// hides the parallelism).
	recs := genRecords(40000, 43)
	q := record.Box1D(0, workload.KeyDomain/10)
	timeFor := func(k int) float64 {
		v, err := Create("", recs, Options{K: k, Seed: 47, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		s, err := v.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Sample(1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1000 {
			t.Fatalf("K=%d: query exhausted at %d samples before the 1000 target", k, len(got))
		}
		return float64(s.SimNow())
	}
	t1, t8 := timeFor(1), timeFor(8)
	if t8 >= t1/2 {
		t.Fatalf("8-shard time-to-1000 %v not at least 2x better than unsharded %v", t8, t1)
	}
}

// TestStreamCloseIdempotentAndRaceSafe mirrors the root stream contract the
// serving layer relies on (the reaper closes streams concurrently).
func TestStreamCloseIdempotentAndRaceSafe(t *testing.T) {
	recs := genRecords(2000, 53)
	v, err := Create("", recs, Options{K: 2, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	s, err := v.Query(record.Box1D(0, workload.KeyDomain-1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := s.Next(); err != nil {
				if err == ErrStreamClosed || err == io.EOF {
					return
				}
			}
		}
	}()
	// A batch draw racing Close is all or nothing: the whole batch, or
	// ErrStreamClosed and no record. (On its own stream, so a short batch
	// can only mean exhaustion: this drawer alone holds all 2000 by then.)
	sb, err := v.Query(record.Box1D(0, workload.KeyDomain-1))
	if err != nil {
		t.Fatal(err)
	}
	batches := make(chan error, 1)
	go func() {
		for drawn := 0; ; {
			batch, err := sb.Sample(16)
			drawn += len(batch)
			if err == ErrStreamClosed && len(batch) == 0 {
				batches <- nil
				return
			}
			if err != nil || (len(batch) != 16 && drawn != len(recs)) {
				batches <- fmt.Errorf("Sample(16) racing Close: %d records (%d so far), err %v", len(batch), drawn, err)
				return
			}
		}
	}()
	first, err := s.Sample(10)
	if err != nil {
		t.Fatal(err)
	}
	held := append([]record.Record(nil), first...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-batches; err != nil {
		t.Fatal(err)
	}
	// Close recycled every shard stream's working memory; a new stream's
	// draws go through it and must leave what the old one returned alone.
	s2, err := v.Query(record.Box1D(0, workload.KeyDomain-1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Sample(1500); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	for i := range first {
		if first[i] != held[i] {
			t.Fatalf("record %d of a returned batch changed after Close + a draw on the next stream", i)
		}
	}
	if _, err := s.Next(); err != ErrStreamClosed {
		t.Fatalf("Next after Close = %v, want ErrStreamClosed", err)
	}
	if s.SimNow() == 0 {
		t.Fatal("SimNow lost after Close")
	}
}

// TestTornManifestTempNeverShadows: the manifest is installed by temp file +
// rename, so a power cut mid-write leaves an arbitrary prefix in
// shard.json.tmp and the live manifest untouched. Open must read only the
// live one, and a clean Create must leave no temp file behind.
func TestTornManifestTempNeverShadows(t *testing.T) {
	recs := genRecords(1500, 41)
	dir := filepath.Join(t.TempDir(), "view")
	v, err := Create(dir, recs, Options{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	v.Close()
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("Create left its temp manifest behind (err=%v)", err)
	}
	if err := os.WriteFile(tmp, []byte(`{"k": 9, "partit`), 0o644); err != nil {
		t.Fatal(err)
	}
	vo, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open beside a torn temp manifest: %v", err)
	}
	defer vo.Close()
	if vo.K() != 3 || vo.Count() != int64(len(recs)) {
		t.Fatalf("reopened K=%d Count=%d, want 3/%d", vo.K(), vo.Count(), len(recs))
	}
}

// TestOpenRecoversFromStaleManifestTemp: Open discards the temp manifest a
// save cut before its rename left behind, as the delta store and the
// catalog do, so a stale temp never outlives the next open.
func TestOpenRecoversFromStaleManifestTemp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "view")
	v, err := Create(dir, genRecords(600, 42), Options{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	v.Close()
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"k": 7`), 0o644); err != nil {
		t.Fatal(err)
	}
	vo, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vo.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("the stale temp manifest survived Open (err=%v)", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "never-created"), Options{}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("opening a view never created: %v, want fs.ErrNotExist", err)
	}
}

// openHandlesUnder lists this process's open file descriptors that resolve
// to paths under dir (Linux /proc only; elsewhere it reports ok=false).
func openHandlesUnder(dir string) (paths []string, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, false
	}
	for _, e := range ents {
		if p, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(p, dir) {
			paths = append(paths, p)
		}
	}
	return paths, true
}

// TestOpenCorruptWALReleasesHandles: when recovery of one shard's log
// fails, Open must return the error having closed everything it had
// opened — the failing shard's page file and delta-level files included.
// (Before the partition owned its own open path, that shard's delta store
// and file leaked.) Repairing the log makes the next Open succeed.
func TestOpenCorruptWALReleasesHandles(t *testing.T) {
	recs := genRecords(2000, 43)
	dir := filepath.Join(t.TempDir(), "view")
	opts := Options{K: 2, Seed: 9, WAL: true}
	v, err := Create(dir, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A flushed level on every shard, so each delta store holds open files.
	fresh := genRecords(400, 44)
	for i := range fresh {
		fresh[i].Seq += 1 << 32
		if err := v.Insert(fresh[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Garbage in a sealed (non-tail) segment is real corruption, not a torn
	// tail recovery may drop: shard 1's log now fails to open.
	wal1 := filepath.Join(dir, ShardFile(1)+".wal")
	old, err := filepath.Glob(wal1 + "*")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range old {
		os.Remove(p)
	}
	if err := os.WriteFile(wal1+"000000", []byte("not a log frame, and too long to be a torn header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal1+"000001", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, opts); err == nil {
		t.Fatal("Open succeeded over a corrupt shard log")
	}
	if open, ok := openHandlesUnder(dir); !ok {
		t.Log("no /proc/self/fd here; handle leak not checked")
	} else if len(open) != 0 {
		t.Fatalf("failed Open leaked %d handles: %v", len(open), open)
	}

	os.Remove(wal1 + "000000")
	vo, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open after repairing the log: %v", err)
	}
	if got, want := vo.Count(), int64(len(recs)+len(fresh)); got != want {
		t.Fatalf("reopened Count = %d, want %d", got, want)
	}
	if err := vo.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSurvivesCompact: a stream open across Compact, which folds every
// shard's write path into a new base renamed over the old file, drains
// exactly the union it opened on, with no error: it reads on from the old
// bases and levels it pinned, and releases them when it closes.
func TestStreamSurvivesCompact(t *testing.T) {
	recs := genRecords(3000, 47)
	dir := filepath.Join(t.TempDir(), "view")
	v, err := Create(dir, recs, Options{K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	want := matching(recs, record.FullBox(1))
	fresh := genRecords(300, 48)
	for i := range fresh {
		fresh[i].Seq += 1 << 32
		if err := v.Insert(fresh[i]); err != nil {
			t.Fatal(err)
		}
		want[fresh[i].Seq] = fresh[i]
		if i%100 == 99 {
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := v.DeltaLevels(); n != 3 {
		t.Fatalf("%d delta levels before the compaction, want 3", n)
	}
	s, err := v.Query(record.FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64]record.Record)
	for len(got) < 10 {
		rec, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		got[rec.Seq] = rec
	}
	if n, err := v.Compact(); err != nil || n != 3 {
		t.Fatalf("Compact rebuilt %d shards (err %v), want 3", n, err)
	}
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream across Compact failed after %d records: %v", len(got), err)
		}
		if _, dup := got[rec.Seq]; dup {
			t.Fatalf("seq %d served twice", rec.Seq)
		}
		got[rec.Seq] = rec
	}
	if len(got) != len(want) {
		t.Fatalf("stream across Compact returned %d records, want %d", len(got), len(want))
	}
	for seq := range want {
		if _, ok := got[seq]; !ok {
			t.Fatalf("seq %d missing from the stream across Compact", seq)
		}
	}
	s.Close()
	if open, ok := openHandlesUnder(dir); ok {
		for _, p := range open {
			if strings.HasSuffix(p, " (deleted)") {
				t.Fatalf("closed stream still holds a superseded file: %v", open)
			}
		}
	}
}
