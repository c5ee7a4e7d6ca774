package sampleview

import (
	"errors"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/shard"
	"sampleview/internal/stats"
)

// buildDiskView stores a view for the real-backend tests and returns its
// path. The view itself is closed; tests reopen it per backend.
func buildDiskView(t *testing.T, recs []Record, seed uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "realio.sv")
	v, err := CreateFromSlice(path, recs, Options{Seed: seed, DiskModel: smallPages()})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBackendStreamEquivalence is the determinism criterion for the
// real-I/O fast path: the same stored view opened through pread and mmap —
// both under the same fault plan — must emit the exact same record sequence
// and charge the exact same simulated time, on each selectivity of the
// paper's 0.25 / 2.5 / 25% mix (the narrow ones read short leaf prefixes,
// one positional read of a few records against a slice of the mapping; the
// wide one reads whole leaves). The backend may only change how fast the
// wall clock moves.
func TestBackendStreamEquivalence(t *testing.T) {
	recs := genRecords(4000, 7)
	path := buildDiskView(t, recs, 9)
	plan, err := FaultProfile("flaky-disk", 42)
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		recs []Record
		st   IOStats
	}
	open := func(backend BackendKind, q Box) run {
		t.Helper()
		v, err := Open(path, Options{DiskModel: smallPages(), Faults: plan, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		s, err := v.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out []Record
		for {
			rec, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("backend %v leaked an error: %v", backend, err)
			}
			out = append(out, rec)
		}
		return run{out, s.Stats()}
	}

	for _, p := range goldenPreds {
		ref := open(BackendPread, p.q)
		if len(ref.recs) == 0 {
			t.Fatalf("%s: reference stream emitted nothing; test proves nothing", p.name)
		}
		if ref.st.Faults.Transient == 0 {
			t.Fatalf("%s: fault plan injected nothing; test proves nothing", p.name)
		}
		got := open(BackendMmap, p.q)
		if len(got.recs) != len(ref.recs) {
			t.Fatalf("%s: mmap emitted %d records, pread %d", p.name, len(got.recs), len(ref.recs))
		}
		for i := range ref.recs {
			if got.recs[i] != ref.recs[i] {
				t.Fatalf("%s: mmap record %d differs from pread", p.name, i)
			}
		}
		if got.st.SimTime != ref.st.SimTime {
			t.Fatalf("%s: mmap charged %v simulated, pread %v", p.name, got.st.SimTime, ref.st.SimTime)
		}
		if got.st.Counters != ref.st.Counters || got.st.Faults != ref.st.Faults {
			t.Fatalf("%s: mmap counters %+v %+v, pread %+v %+v", p.name,
				got.st.Counters, got.st.Faults, ref.st.Counters, ref.st.Faults)
		}
	}
}

// TestOldTreeFormatRefused rewrites a stored view's header to each previous
// tree format and checks that Open and OpenSharded fail with the typed
// *FormatError and its "rebuild the view" text intact, whatever wraps it.
func TestOldTreeFormatRefused(t *testing.T) {
	for _, old := range []byte{'1', '2', '3'} {
		t.Run("format"+string(old), func(t *testing.T) { checkOldTreeFormatRefused(t, old) })
	}
}

func checkOldTreeFormatRefused(t *testing.T, old byte) {
	downgrade := func(path string) {
		t.Helper()
		f, err := pagefile.Open(iosim.New(smallPages()), path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		page := make([]byte, f.PageSize())
		if err := f.Read(0, page); err != nil {
			t.Fatal(err)
		}
		page[0] = old // "SVACETR4" is stored little-endian: the version digit comes first
		if err := f.Write(0, page); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, err error) {
		t.Helper()
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Found != int(old-'0') || fe.Wanted != 4 || !strings.Contains(err.Error(), fe.Error()) ||
			!strings.Contains(err.Error(), "rebuild the view") {
			t.Fatalf("%s over a format-%c tree = %v, want a *FormatError surfaced verbatim", what, old, err)
		}
	}
	recs := genRecords(2000, 3)
	path := buildDiskView(t, recs, 1)
	downgrade(path)
	_, err := Open(path, Options{DiskModel: smallPages()})
	check("Open", err)

	dir := filepath.Join(t.TempDir(), "old.shards")
	sopts := ShardedOptions{K: 2, Partition: HashBySeq, Seed: 1, Model: smallPages()}
	sv, err := CreateSharded(dir, recs, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	downgrade(filepath.Join(dir, shard.ShardFile(1)))
	_, err = OpenSharded(dir, sopts)
	check("OpenSharded", err)
}

// TestStreamChurnMmapRace churns streams over an mmap view under -race:
// samplers race closers on streams reading the mapping zero-copy, and the
// view unmaps as soon as they are done. Nothing may panic or deadlock.
func TestStreamChurnMmapRace(t *testing.T) {
	recs := genRecords(20_000, 13)
	path := buildDiskView(t, recs, 11)
	q := Box1D(0, 1<<20)

	for round := 0; round < 6; round++ {
		v, err := Open(path, Options{DiskModel: smallPages(), Backend: BackendMmap})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for si := 0; si < 3; si++ {
			s, err := v.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						_, err := s.Next()
						if err == io.EOF || err == ErrStreamClosed {
							return
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Close(); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestMmapUniformityUnderFaults is the statistical acceptance gate: with
// the mmap backend and a fault profile both active, the k-prefix of a stream must still be a uniform sample of the matching
// records. Each trial rebuilds the view with a fresh construction seed
// (queries are deterministic; the randomness lives in the build).
func TestMmapUniformityUnderFaults(t *testing.T) {
	recs := genRecords(2500, 7)
	q := Box1D(1<<18, 3<<19)
	match := matching(recs, q)
	if len(match) < 200 {
		t.Fatalf("only %d matching records; widen the query", len(match))
	}
	plan, err := FaultProfile("flaky-disk", 42)
	if err != nil {
		t.Fatal(err)
	}

	const k, trials = 30, 100
	counts := make(map[uint64]int64)
	var transient int64
	for trial := 0; trial < trials; trial++ {
		path := filepath.Join(t.TempDir(), "trial.sv")
		v, err := CreateFromSlice(path, recs, Options{
			Seed: uint64(1000 + trial), DiskModel: smallPages(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		rv, err := Open(path, Options{DiskModel: smallPages(), Faults: plan, Backend: BackendMmap})
		if err != nil {
			t.Fatal(err)
		}
		s, err := rv.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sample, err := s.Sample(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(sample) != k {
			t.Fatalf("trial %d: sampled %d of %d", trial, len(sample), k)
		}
		for _, rec := range sample {
			if !match[rec.Seq] {
				t.Fatalf("trial %d: non-matching record %d sampled", trial, rec.Seq)
			}
			counts[rec.Seq]++
		}
		transient += s.Stats().Faults.Transient
		s.Close()
		rv.Close()
	}
	if transient == 0 {
		t.Fatal("no faults fired across any trial; profile inactive")
	}

	seqs := make([]uint64, 0, len(match))
	for seq := range match {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	const groups = 25
	grouped := make([]int64, groups)
	for i, seq := range seqs {
		grouped[i%groups] += counts[seq]
	}
	p, err := stats.ChiSquareUniformPValue(grouped)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("prefix not uniform with mmap+faults: p=%v", p)
	}
}
