package sampleview

import (
	"io"
	"path/filepath"
	"sort"
	"sync"
	"testing"

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
// and charge the exact same simulated time. The backend may only change how
// fast the wall clock moves.
func TestBackendStreamEquivalence(t *testing.T) {
	recs := genRecords(4000, 7)
	q := Box1D(1<<18, 3<<19)
	path := buildDiskView(t, recs, 9)
	plan, err := FaultProfile("flaky-disk", 42)
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		recs []Record
		st   IOStats
	}
	open := func(backend BackendKind) run {
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

	ref := open(BackendPread)
	if len(ref.recs) == 0 {
		t.Fatal("reference stream emitted nothing; test proves nothing")
	}
	if ref.st.Faults.Transient == 0 {
		t.Fatal("fault plan injected nothing; test proves nothing")
	}
	got := open(BackendMmap)
	if len(got.recs) != len(ref.recs) {
		t.Fatalf("mmap emitted %d records, pread %d", len(got.recs), len(ref.recs))
	}
	for i := range ref.recs {
		if got.recs[i] != ref.recs[i] {
			t.Fatalf("mmap record %d differs from pread", i)
		}
	}
	if got.st.SimTime != ref.st.SimTime {
		t.Fatalf("mmap charged %v simulated, pread %v", got.st.SimTime, ref.st.SimTime)
	}
	if got.st.Faults != ref.st.Faults {
		t.Fatalf("mmap fault counters %+v, pread %+v", got.st.Faults, ref.st.Faults)
	}
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
