package catalog

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sampleview/internal/record"
	"sampleview/internal/shard"
	"sampleview/internal/workload"
)

func genRecords(n int, seed uint64) []record.Record {
	g := workload.NewGenerator(workload.Uniform, seed)
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = g.Next()
	}
	return recs
}

func TestRegisterGetListDrop(t *testing.T) {
	c, err := New("", shard.Options{}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs := genRecords(2000, 1)
	if _, err := c.Register("orders", recs, shard.Options{K: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("orders", recs, shard.Options{K: 2}); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	v, ok := c.Get("orders")
	if !ok || v.K() != 2 {
		t.Fatalf("Get returned (%v, %v)", v, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get found an unregistered view")
	}
	infos := c.List()
	if len(infos) != 1 || infos[0].Name != "orders" || infos[0].Health != HealthOK {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Count != 2000 {
		t.Fatalf("Count = %d, want 2000", infos[0].Count)
	}
	if err := c.Drop("orders"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("orders"); err == nil {
		t.Fatal("double Drop succeeded")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after drop", c.Len())
	}
}

func TestNameValidationRejectsTraversal(t *testing.T) {
	c, err := New("", shard.Options{}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"", "../evil", "a/b", ".hidden", "x y", strings.Repeat("a", 80)} {
		if _, err := c.Register(name, nil, shard.Options{}); err == nil {
			t.Fatalf("Register accepted invalid name %q", name)
		}
	}
}

func TestPersistedCatalogReopens(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cat")
	c, err := New(root, shard.Options{}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(2500, 3)
	if _, err := c.Register("orders", recs, shard.Options{K: 3, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("lineitem", recs[:1000], shard.Options{K: 2, Partition: shard.RangeByKey, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := New(root, shard.Options{}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	infos := c2.List()
	if len(infos) != 2 {
		t.Fatalf("reopened catalog has %d views, want 2", len(infos))
	}
	if infos[0].Name != "lineitem" || infos[0].K != 2 || infos[0].Partition != shard.RangeByKey {
		t.Fatalf("lineitem info = %+v", infos[0])
	}
	v, ok := c2.Get("orders")
	if !ok {
		t.Fatal("orders missing after reopen")
	}
	q := record.Box1D(0, workload.KeyDomain/2)
	s, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	want := 0
	for i := range recs {
		if q.ContainsRecord(&recs[i]) {
			want++
		}
	}
	if n != want {
		t.Fatalf("reopened view served %d records, want %d", n, want)
	}

	if err := c2.Drop("orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "views", "orders")); !os.IsNotExist(err) {
		t.Fatalf("dropped view directory still present (err=%v)", err)
	}
}

func TestCompactionJobTriggersAtThreshold(t *testing.T) {
	c, err := New("", shard.Options{}, Policy{CompactThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.Register("orders", genRecords(2000, 5), shard.Options{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(workload.Uniform, 77)
	for i := 0; i < 49; i++ {
		v.Append(g.Next())
	}
	if reports := c.RunDueJobs(); len(reports) != 0 {
		t.Fatalf("jobs ran below threshold: %+v", reports)
	}
	if got := c.List()[0].Health; got != HealthStale {
		t.Fatalf("health below threshold = %q, want stale", got)
	}
	v.Append(g.Next())
	reports := c.RunDueJobs()
	if len(reports) != 1 || reports[0].Kind != "compact" || reports[0].Err != nil {
		t.Fatalf("reports = %+v", reports)
	}
	if reports[0].ShardsRebuilt == 0 || reports[0].Cost == 0 {
		t.Fatalf("compact report = %+v, want rebuilt shards and nonzero cost", reports[0])
	}
	if v.PendingAppends() != 0 {
		t.Fatalf("%d appends pending after compaction", v.PendingAppends())
	}
	if got := c.List()[0].Health; got != HealthOK {
		t.Fatalf("health after compaction = %q, want ok", got)
	}
	if reports := c.RunDueJobs(); len(reports) != 0 {
		t.Fatalf("jobs re-ran with nothing due: %+v", reports)
	}
}

// TestFlushAndMergeJobs: with FlushThreshold and MaxDeltaLevels set,
// RunDueJobs flushes each batch that reaches the threshold into a delta
// level, leaves a ladder at the depth alone while no pair is due by size
// (batches shrink, so none is), forces a merge once the ladder passes the
// depth — and the view still serves every record exactly once.
func TestFlushAndMergeJobs(t *testing.T) {
	c, err := New("", shard.Options{}, Policy{FlushThreshold: 20, MaxDeltaLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := genRecords(2000, 9)
	v, err := c.Register("orders", base, shard.Options{K: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]bool, len(base))
	for _, r := range base {
		want[r.Seq] = true
	}
	g := workload.NewGenerator(workload.Uniform, 19)
	seq := uint64(1 << 32) // disjoint from the base's Seqs
	for i, n := range []int{400, 100, 25} {
		for j := 0; j < n; j++ {
			rec := g.Next()
			rec.Seq = seq
			seq++
			if err := v.Insert(rec); err != nil {
				t.Fatal(err)
			}
			want[rec.Seq] = true
		}
		reports := c.RunDueJobs()
		if len(reports) == 0 || reports[0].Kind != "flush" || reports[0].Err != nil {
			t.Fatalf("batch %d of %d records: reports = %+v, want a flush first", i, n, reports)
		}
		if w := v.WriteStats(); w.MemViewRecords != 0 {
			t.Fatalf("batch %d: %d records still buffered after the flush", i, w.MemViewRecords)
		}
		switch i {
		case 0: // one level: no merge considered
			if len(reports) != 1 {
				t.Fatalf("batch 0: reports = %+v, want the flush alone", reports)
			}
		case 1: // two levels, at the depth, the newer smaller: nothing merges
			if len(reports) != 2 || reports[1].Kind != "merge" || reports[1].ShardsMerged != 0 || v.DeltaLevels() != 2 {
				t.Fatalf("batch 1: reports = %+v at %d levels, want an idle merge at 2", reports, v.DeltaLevels())
			}
		case 2: // three levels, past the depth: every shard is forced back to two
			if len(reports) != 2 || reports[1].Kind != "merge" || reports[1].Err != nil ||
				reports[1].ShardsMerged != v.K() || v.DeltaLevels() != 2 {
				t.Fatalf("batch 2: reports = %+v at %d levels, want a forced merge of %d shards to 2", reports, v.DeltaLevels(), v.K())
			}
		}
	}

	s, err := v.Query(record.Box1D(0, workload.KeyDomain-1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for {
		r, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !want[r.Seq] {
			t.Fatalf("record seq %d served twice or never stored", r.Seq)
		}
		delete(want, r.Seq)
	}
	if len(want) != 0 {
		t.Fatalf("%d records never served", len(want))
	}
}

func TestScrubJobDetectsDamageAndSetsHealth(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cat")
	c, err := New(root, shard.Options{}, Policy{ScrubEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.Register("orders", genRecords(2000, 7), shard.Options{K: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// The build charged simulated time well past ScrubEvery, so a scrub is
	// due immediately; it finds a clean view.
	reports := c.RunDueJobs()
	if len(reports) != 1 || reports[0].Kind != "scrub" || reports[0].FaultsFound != 0 {
		t.Fatalf("first scrub reports = %+v", reports)
	}
	// Immediately after, nothing is due: the view clock has barely moved.
	if reports := c.RunDueJobs(); len(reports) != 0 {
		t.Fatalf("scrub re-ran without clock advance: %+v", reports)
	}
	// Corrupt a page of shard 1, advance the clock past ScrubEvery by
	// draining a query, and scrub again.
	path := filepath.Join(root, "views", "orders", shard.ShardFile(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ps := v.Farm().Model().PageSize
	data[ps+200] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := v.Query(record.Box1D(0, workload.KeyDomain-1))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := s.Next(); err != nil {
			break
		}
	}
	reports = c.RunDueJobs()
	if len(reports) != 1 || reports[0].Kind != "scrub" {
		t.Fatalf("post-damage reports = %+v", reports)
	}
	if reports[0].FaultsFound == 0 {
		t.Fatal("scrub missed the corrupted page")
	}
	info := c.List()[0]
	if info.Health != HealthDegraded || len(info.DegradedShards) != 1 || info.DegradedShards[0] != 1 {
		t.Fatalf("info after damage = %+v", info)
	}
	if info.LastScrub == 0 {
		t.Fatal("LastScrub not recorded")
	}
}

func TestTryRunDueJobsSkipsWhenBusy(t *testing.T) {
	c, err := New("", shard.Options{}, Policy{ScrubEvery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("orders", genRecords(1000, 9), shard.Options{K: 1}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	if _, ok := c.TryRunDueJobs(); ok {
		t.Fatal("TryRunDueJobs ran while the catalog was locked")
	}
	c.mu.Unlock()
	if reports, ok := c.TryRunDueJobs(); !ok || len(reports) != 1 {
		t.Fatalf("TryRunDueJobs idle = (%+v, %v)", reports, ok)
	}
}

// TestReopenAfterPartialManifestTempWrite simulates a crash mid-save: a
// torn catalog.json.tmp is left beside an intact manifest. Reopen must
// ignore and remove the temp file, serve the registered views, and the
// next save must not be confused by the stale temp.
func TestReopenAfterPartialManifestTempWrite(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cat")
	c, err := New(root, shard.Options{}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(1200, 3)
	if _, err := c.Register("orders", recs, shard.Options{K: 2, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// A power cut mid-write leaves an arbitrary prefix (here: garbage) in
	// the temp file; the rename never happened, so the manifest is intact.
	tmp := filepath.Join(root, ManifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"Views":[{"Name":"or`), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := New(root, shard.Options{}, Policy{})
	if err != nil {
		t.Fatalf("reopen with torn temp manifest: %v", err)
	}
	defer c2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp manifest survived reopen (err=%v)", err)
	}
	v, ok := c2.Get("orders")
	if !ok {
		t.Fatal("orders missing after reopen with torn temp manifest")
	}
	if got := v.Count(); got != 1200 {
		t.Fatalf("orders count = %d, want 1200", got)
	}
	// The next manifest save must go through cleanly (temp + rename).
	if _, err := c2.Register("lineitem", recs[:100], shard.Options{K: 2, Seed: 9}); err != nil {
		t.Fatalf("register after torn-temp recovery: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("save left its temp manifest behind")
	}
}

// TestManifestWithPlacementOpens keeps manifests written while the catalog
// still recorded replica placement readable: the field is ignored, the view
// opens, and the next save drops it.
func TestManifestWithPlacementOpens(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, shard.Options{}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("orders", genRecords(500, 3), shard.Options{K: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(data), `"dir":`, `"placement": ["10.0.0.1:7070"], "dir":`, 1)
	if old == string(data) {
		t.Fatalf("manifest has no dir field to sit beside: %s", data)
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := New(dir, shard.Options{}, Policy{})
	if err != nil {
		t.Fatalf("manifest with a placement field: %v", err)
	}
	defer c2.Close()
	if infos := c2.List(); len(infos) != 1 || infos[0].Name != "orders" || infos[0].Count != 500 {
		t.Fatalf("reopened catalog lists %+v", infos)
	}
	if _, err := c2.Register("sales", genRecords(100, 4), shard.Options{K: 2, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || strings.Contains(string(data), "placement") {
		t.Fatalf("resaved manifest (err %v) still carries placement: %s", err, data)
	}
}
