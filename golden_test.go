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
// sequence: one line per (configuration, predicate, open kind).
const goldenDigests = "testdata/stream_digests.golden"

// goldenWriter is the write surface the root and sharded views share.
type goldenWriter interface {
	Insert(Record) error
	Delete(Record) error
	Flush() error
	Commit() error
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
func goldenDigest(t *testing.T, s *Stream) string {
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

// goldenView is the surface both golden tests drive: the root view and the
// sharded view behind the same three methods.
type goldenView struct {
	seeded func(Box, uint64) (*Stream, error)
	drawn  func(Box) (*Stream, error)
	inject func(FaultPlan)
}

func goldenRoot(v *View) goldenView {
	return goldenView{v.QuerySeeded, v.Query, v.InjectFaults}
}

func goldenSharded(v *ShardedView) goldenView {
	return goldenView{v.QuerySeeded, v.Query, v.InjectFaults}
}

// goldenConfigs builds every pinned configuration in turn — the root view
// and a K=4 hash-sharded view, each with an empty write path, memview only,
// memview + two flushed levels with tombstones, after Compact, and after
// close → reopen with WAL replay — and hands each to visit while it is in
// exactly that state.
func goldenConfigs(t *testing.T, visit func(cfg string, v goldenView)) {
	base := genRecords(8000, 2006)
	dir := t.TempDir()

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
	visit("root/empty", goldenRoot(v))
	goldenBatch(t, v, base, nil, 1_000_000, 600, 0, 200, 0)
	visit("root/memview", goldenRoot(v))

	v = rootAt("levels.sv", ropts)
	goldenLevels(t, v, base)
	if v.DeltaLevels() != 2 {
		t.Fatalf("root levels = %d, want 2", v.DeltaLevels())
	}
	visit("root/levels", goldenRoot(v))
	cv, err := v.Compact(filepath.Join(dir, "compacted.sv"), ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer cv.Close()
	if cv.PendingAppends() != 0 {
		t.Fatalf("compacted root view still holds %d pending", cv.PendingAppends())
	}
	visit("root/compacted", goldenRoot(cv))

	wopts := ropts
	wopts.WAL = true
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
	visit("root/reopened", goldenRoot(wv))

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
	visit("shard4/empty", goldenSharded(sv))
	goldenBatch(t, sv, base, nil, 1_000_000, 600, 0, 200, 0)
	visit("shard4/memview", goldenSharded(sv))

	sv = shardAt("levels.shards", sopts)
	goldenLevels(t, sv, base)
	if sv.DeltaLevels() != 2 {
		t.Fatalf("shard levels = %d, want 2", sv.DeltaLevels())
	}
	visit("shard4/levels", goldenSharded(sv))
	if n, err := sv.Compact(); err != nil || n != 4 {
		t.Fatalf("shard Compact rebuilt %d shards, err %v; want 4", n, err)
	}
	visit("shard4/compacted", goldenSharded(sv))

	swopts := sopts
	swopts.WAL = true
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
	visit("shard4/reopened", goldenSharded(swv))
}

// goldenCompare checks out against the checked-in file at path. When the
// file is missing the test writes it and fails, so a new baseline is always
// a deliberate, reviewed act.
func goldenCompare(t *testing.T, path string, out []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist; wrote a fresh baseline — review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, out) {
		wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(out, []byte("\n"))
		for i := range gl {
			if i >= len(wl) || !bytes.Equal(wl[i], gl[i]) {
				w := "<missing>"
				if i < len(wl) {
					w = string(wl[i])
				}
				t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("output differs from %s", path)
	}
}

// TestGoldenStreamDigests pins the exact record sequence of every stream
// kind over every configuration of goldenConfigs: a refactor that changes
// any rng draw order, shuffle, merge decision or stored byte changes a
// digest.
func TestGoldenStreamDigests(t *testing.T) {
	var out bytes.Buffer
	goldenConfigs(t, func(cfg string, v goldenView) {
		for _, p := range goldenPreds {
			s, err := v.seeded(p.q, 42)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s seeded %s\n", cfg, p.name, goldenDigest(t, s))
			if s, err = v.drawn(p.q); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s query %s\n", cfg, p.name, goldenDigest(t, s))
		}
	})
	goldenCompare(t, goldenDigests, out.Bytes())
}

// goldenClocks is the checked-in record of what every seeded stream is
// charged and what it loses under fault injection: simulated reads and
// time, every fault counter, sampler retries, degraded leaves and sections,
// and the error sequence. A change to how bytes move (partial reads,
// backends, copies) must leave every line alone.
const goldenClocks = "testdata/stream_clocks.golden"

// goldenClockLine drains s the way a resilient client would (degraded and
// transient errors are recorded and the stream re-driven) and renders the
// record digest, the stream's clock and fault counters, and a digest of the
// error sequence.
func goldenClockLine(t *testing.T, s *Stream) string {
	t.Helper()
	recs, errs := fnv.New64a(), fnv.New64a()
	buf := make([]byte, record.Size)
	n, nerr := 0, 0
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintf(errs, "%d:%v\n", n, err)
			if nerr++; nerr > 10000 {
				t.Fatal("stream stuck in errors")
			}
			if IsDegraded(err) || IsTransient(err) {
				continue
			}
			fmt.Fprintf(errs, "fatal\n")
			break
		}
		rec.Marshal(buf)
		recs.Write(buf)
		n++
	}
	st := s.Stats()
	c, f := st.Counters, st.Faults
	return fmt.Sprintf("%016x n=%d reads=%d/%d sim=%s faults=%d/%d/%d/%d/%d retries=%d degraded=%d/%d errs=%d:%016x",
		recs.Sum64(), n, c.RandomReads, c.SequentialReads, st.SimTime,
		f.Transient, f.LatencySpikes, f.Rereads, f.CorruptPages, f.DeadPages,
		st.Retries, st.DegradedLeaves, st.DegradedSections, nerr, errs.Sum64())
}

// TestGoldenStreamClocks pins, for every configuration × fault profile ×
// two plan seeds × predicate, everything a seeded stream is charged and
// everything it reports losing. The file was recorded before partial leaf
// reads existed; it passing unchanged is the statement that they changed
// only the real bytes moved.
func TestGoldenStreamClocks(t *testing.T) {
	var out bytes.Buffer
	goldenConfigs(t, func(cfg string, v goldenView) {
		for _, profile := range []string{"none", "flaky-disk", "bitrot", "hell"} {
			for _, seed := range []uint64{1, 2} {
				plan, err := FaultProfile(profile, seed)
				if err != nil {
					t.Fatal(err)
				}
				v.inject(plan)
				for _, p := range goldenPreds {
					s, err := v.seeded(p.q, 42)
					if err != nil {
						fmt.Fprintf(&out, "%s %s %s/%d open: %v\n", cfg, p.name, profile, seed, err)
						continue
					}
					fmt.Fprintf(&out, "%s %s %s/%d %s\n", cfg, p.name, profile, seed, goldenClockLine(t, s))
				}
			}
		}
		v.inject(FaultPlan{})
	})
	goldenCompare(t, goldenClocks, out.Bytes())
}
