package sampleview

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sampleview/internal/record"
)

// goldenDigests is the checked-in record of every seeded stream's byte
// sequence: one line per (configuration, predicate, open kind). A refactor
// that changes any rng draw order, shuffle, merge decision or stored byte
// changes a digest. When the file is missing the test writes it and fails,
// so a new baseline is always a deliberate, reviewed act.
const goldenDigests = "testdata/stream_digests.golden"

// goldenWriter is the write surface the root and sharded views share.
type goldenWriter interface {
	Insert(Record) error
	Delete(Record) error
	Flush() error
	Commit() error
}

type goldenNexter interface {
	Next() (Record, error)
}

// goldenPreds are the paper's 0.25% / 2.5% / 25% selectivities over the
// generator's 2^20 key domain.
var goldenPreds = []struct {
	name string
	q    Box
}{
	{"0.25%", Box1D(400_000, 400_000+(1<<20)/400)},
	{"2.5%", Box1D(300_000, 300_000+(1<<20)/40)},
	{"25%", Box1D(200_000, 200_000+(1<<20)/4)},
}

// goldenBatch applies one deterministic write batch: ins fresh inserts
// (Seqs from seqBase), delBase deletes of base records starting at index
// delFrom (batches use disjoint ranges, so no record is deleted twice), and
// delPrev deletes of records a previous batch inserted. It returns the
// batch's inserts.
func goldenBatch(t *testing.T, w goldenWriter, base, prev []Record, seqBase uint64, ins, delFrom, delBase, delPrev int) []Record {
	t.Helper()
	fresh := genRecords(ins, seqBase)
	for i := range fresh {
		fresh[i].Seq = seqBase + uint64(i)
		if err := w.Insert(fresh[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < delBase; i++ {
		if err := w.Delete(base[delFrom+i*7]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < delPrev; i++ {
		if err := w.Delete(prev[i*3]); err != nil {
			t.Fatal(err)
		}
	}
	return fresh
}

// goldenLevels drives a view to memview + two flushed levels, with
// tombstones targeting the base and an older level.
func goldenLevels(t *testing.T, w goldenWriter, base []Record) {
	t.Helper()
	a := goldenBatch(t, w, base, nil, 1_000_000, 500, 0, 150, 0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := goldenBatch(t, w, base, a, 2_000_000, 400, 3000, 100, 60)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	goldenBatch(t, w, base, b, 3_000_000, 100, 6000, 30, 20)
}

// goldenDigest drains s and returns the FNV-64a of its record bytes.
func goldenDigest(t *testing.T, s goldenNexter) string {
	t.Helper()
	h := fnv.New64a()
	buf := make([]byte, record.Size)
	n := 0
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return fmt.Sprintf("%016x n=%d", h.Sum64(), n)
		}
		if err != nil {
			t.Fatal(err)
		}
		rec.Marshal(buf)
		h.Write(buf)
		n++
	}
}

// goldenRecord appends one line per predicate and open kind for a view.
func goldenRecord(t *testing.T, out *bytes.Buffer, cfg string,
	seeded func(Box, uint64) (goldenNexter, error), drawn func(Box) (goldenNexter, error)) {
	t.Helper()
	for _, p := range goldenPreds {
		s, err := seeded(p.q, 42)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(out, "%s %s seeded %s\n", cfg, p.name, goldenDigest(t, s))
		if s, err = drawn(p.q); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(out, "%s %s query %s\n", cfg, p.name, goldenDigest(t, s))
	}
}

func goldenRoot(t *testing.T, out *bytes.Buffer, cfg string, v *View) {
	t.Helper()
	goldenRecord(t, out, cfg,
		func(q Box, seed uint64) (goldenNexter, error) { return v.QuerySeeded(q, seed) },
		func(q Box) (goldenNexter, error) { return v.Query(q) })
}

func goldenSharded(t *testing.T, out *bytes.Buffer, cfg string, v *ShardedView) {
	t.Helper()
	goldenRecord(t, out, cfg,
		func(q Box, seed uint64) (goldenNexter, error) { return v.QuerySeeded(q, seed) },
		func(q Box) (goldenNexter, error) { return v.Query(q) })
}

// TestGoldenStreamDigests pins the exact record sequence of every stream
// kind over every write-path shape, for the root view and a K=4 hash-sharded
// view: empty write path, memview only, memview + two flushed levels with
// tombstones, after Compact, and after close → reopen with WAL replay.
func TestGoldenStreamDigests(t *testing.T) {
	base := genRecords(8000, 2006)
	dir := t.TempDir()
	var out bytes.Buffer

	// Root view.
	ropts := Options{Seed: 7, DiskModel: smallPages()}
	rootAt := func(name string, opts Options) *View {
		t.Helper()
		v, err := CreateFromSlice(filepath.Join(dir, name), base, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		return v
	}
	v := rootAt("empty.sv", ropts)
	goldenRoot(t, &out, "root/empty", v)
	goldenBatch(t, v, base, nil, 1_000_000, 600, 0, 200, 0)
	goldenRoot(t, &out, "root/memview", v)

	v = rootAt("levels.sv", ropts)
	goldenLevels(t, v, base)
	if v.DeltaLevels() != 2 {
		t.Fatalf("root levels = %d, want 2", v.DeltaLevels())
	}
	goldenRoot(t, &out, "root/levels", v)
	cv, err := v.Compact(filepath.Join(dir, "compacted.sv"), ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer cv.Close()
	if cv.PendingAppends() != 0 {
		t.Fatalf("compacted root view still holds %d pending", cv.PendingAppends())
	}
	goldenRoot(t, &out, "root/compacted", cv)

	wopts := ropts
	wopts.WAL, wopts.WALSyncEvery = true, 1
	wv, err := CreateFromSlice(filepath.Join(dir, "wal.sv"), base, wopts)
	if err != nil {
		t.Fatal(err)
	}
	goldenLevels(t, wv, base)
	if err := wv.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := wv.Close(); err != nil {
		t.Fatal(err)
	}
	if wv, err = Open(filepath.Join(dir, "wal.sv"), wopts); err != nil {
		t.Fatal(err)
	}
	defer wv.Close()
	if wv.WriteStats().WALReplayed == 0 {
		t.Fatal("root reopen replayed nothing; the case proves nothing")
	}
	goldenRoot(t, &out, "root/reopened", wv)

	// K=4 hash-sharded view.
	sopts := ShardedOptions{K: 4, Partition: HashBySeq, Seed: 7, Model: smallPages()}
	shardAt := func(name string, opts ShardedOptions) *ShardedView {
		t.Helper()
		sv, err := CreateSharded(filepath.Join(dir, name), base, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sv.Close() })
		return sv
	}
	sv := shardAt("empty.shards", sopts)
	goldenSharded(t, &out, "shard4/empty", sv)
	goldenBatch(t, sv, base, nil, 1_000_000, 600, 0, 200, 0)
	goldenSharded(t, &out, "shard4/memview", sv)

	sv = shardAt("levels.shards", sopts)
	goldenLevels(t, sv, base)
	if sv.DeltaLevels() != 2 {
		t.Fatalf("shard levels = %d, want 2", sv.DeltaLevels())
	}
	goldenSharded(t, &out, "shard4/levels", sv)
	if n, err := sv.Compact(); err != nil || n != 4 {
		t.Fatalf("shard Compact rebuilt %d shards, err %v; want 4", n, err)
	}
	goldenSharded(t, &out, "shard4/compacted", sv)

	swopts := sopts
	swopts.WAL, swopts.WALSyncEvery = true, 1
	swv, err := CreateSharded(filepath.Join(dir, "wal.shards"), base, swopts)
	if err != nil {
		t.Fatal(err)
	}
	goldenLevels(t, swv, base)
	if err := swv.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := swv.Close(); err != nil {
		t.Fatal(err)
	}
	if swv, err = OpenSharded(filepath.Join(dir, "wal.shards"), swopts); err != nil {
		t.Fatal(err)
	}
	defer swv.Close()
	if swv.WriteStats().WALReplayed == 0 {
		t.Fatal("shard reopen replayed nothing; the case proves nothing")
	}
	goldenSharded(t, &out, "shard4/reopened", swv)

	want, err := os.ReadFile(goldenDigests)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenDigests), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigests, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist; wrote a fresh baseline — review and commit it", goldenDigests)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, out.Bytes()) {
		wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(out.Bytes(), []byte("\n"))
		for i := range gl {
			if i >= len(wl) || !bytes.Equal(wl[i], gl[i]) {
				w := "<missing>"
				if i < len(wl) {
					w = string(wl[i])
				}
				t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("stream digests differ from %s", goldenDigests)
	}
}
