package pagefile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sampleview/internal/iosim"
)

// TestChecksumRoundTrip verifies that v2 pages survive a write/read cycle
// and that the payload size excludes the header.
func TestChecksumRoundTrip(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	if f.PageSize() != 512-frameHdrSize {
		t.Fatalf("PageSize = %d, want %d", f.PageSize(), 512-frameHdrSize)
	}
	want := fill(f.PageSize(), 0x5c)
	if _, err := f.Append(want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, f.PageSize())
	if err := f.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted by checksum framing")
	}
	if err := f.CheckPage(0); err != nil {
		t.Fatalf("CheckPage on healthy page: %v", err)
	}
}

// TestCorruptionDetected flips single bits across the stored frame —
// payload, page-number field, and the checksum itself — and requires every
// flip to surface as a CorruptPageError, never silent wrong bytes.
func TestCorruptionDetected(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	if _, err := f.Append(fill(f.PageSize(), 3)); err != nil {
		t.Fatal(err)
	}
	physBits := int64(512 * 8)
	buf := make([]byte, f.PageSize())
	for _, bit := range []int64{0, 31, 32, 63, 64, 1000, physBits - 1} {
		g := NewMem(sim)
		if _, err := g.Append(fill(g.PageSize(), 3)); err != nil {
			t.Fatal(err)
		}
		if err := g.CorruptStored(0, bit); err != nil {
			t.Fatal(err)
		}
		err := g.Read(0, buf)
		var cpe *CorruptPageError
		if !errors.As(err, &cpe) {
			t.Fatalf("bit %d: Read = %v, want CorruptPageError", bit, err)
		}
		if cpe.Page != 0 {
			t.Fatalf("bit %d: corrupt page reported as %d", bit, cpe.Page)
		}
		if err := g.CheckPage(0); !errors.As(err, &cpe) {
			t.Fatalf("bit %d: CheckPage = %v, want CorruptPageError", bit, err)
		}
	}
}

// writeLegacyV1 writes a checksum-less seed-format file (three raw 512-byte
// pages, no superblock) and returns its path.
func writeLegacyV1(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "legacy.pf")
	raw := make([]byte, 0, 3*512)
	for i := byte(1); i <= 3; i++ {
		raw = append(raw, fill(512, i)...)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLegacyV1BackCompat pins what is left of v1 support: a file without
// the superblock — and an empty one — is refused with a *FormatError, not
// served unverified.
func TestLegacyV1BackCompat(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.pf")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{writeLegacyV1(t), empty} {
		f, err := OpenWith(testSim(), path, OpenOptions{Backend: BackendPread})
		var fe *FormatError
		if !errors.As(err, &fe) {
			if err == nil {
				f.Close()
			}
			t.Fatalf("Open(%s) = %v, want a *FormatError", filepath.Base(path), err)
		}
	}
}

// TestV2OpenRejectsWrongPageSize verifies the superblock catches a disk
// model mismatch instead of serving misframed pages.
func TestV2OpenRejectsWrongPageSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v2.pf")
	sim := testSim()
	f, err := Create(sim, path)
	if err != nil {
		t.Fatal(err)
	}
	f.Append(fill(f.PageSize(), 1))
	f.Append(fill(f.PageSize(), 2))
	f.Append(fill(f.PageSize(), 3))
	f.Append(fill(f.PageSize(), 4)) // 4 data pages + superblock = 5 phys
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// 5*512 bytes reads as a whole number of 256-byte pages, so only the
	// superblock check can reject the mismatch.
	badSim := iosim.New(iosim.Model{
		RandomRead: time.Millisecond, SequentialRead: time.Millisecond,
		RandomWrite: time.Millisecond, SequentialWrite: time.Millisecond,
		PageSize: 256,
	})
	if _, err := Open(badSim, path); err == nil {
		t.Fatal("Open should reject a v2 file under the wrong page size")
	}
}

// TestTransientFaultAbsorbed verifies a flaky page inside the retry budget
// is invisible to the caller while still charging retries to the clock.
func TestTransientFaultAbsorbed(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	if _, err := f.Append(fill(f.PageSize(), 7)); err != nil {
		t.Fatal(err)
	}
	sim.SetFaultPlan(iosim.FaultPlan{Seed: 1, TransientRate: 1.0, TransientBurst: 2})
	before := sim.Counters().Reads()
	buf := make([]byte, f.PageSize())
	if err := f.Read(0, buf); err != nil {
		t.Fatalf("transient faults within budget should be absorbed: %v", err)
	}
	if buf[0] != 7 {
		t.Fatal("wrong payload after retries")
	}
	attempts := sim.Counters().Reads() - before
	if attempts < 2 {
		t.Fatalf("retries should charge the clock: %d read charges", attempts)
	}
	fc := sim.FaultCounters()
	if fc.Transient == 0 {
		t.Fatalf("fault counters = %+v, want transient > 0", fc)
	}
}

// TestTransientFaultEscapes verifies bursts longer than the budget surface
// as a typed TransientError.
func TestTransientFaultEscapes(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	if _, err := f.Append(fill(f.PageSize(), 7)); err != nil {
		t.Fatal(err)
	}
	sim.SetFaultPlan(iosim.FaultPlan{Seed: 1, TransientRate: 1.0, TransientBurst: 8, MaxAttempts: 3})
	buf := make([]byte, f.PageSize())
	err := f.Read(0, buf)
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("Read = %v, want TransientError", err)
	}
	if te.Page != 0 || te.Attempts != 3 {
		t.Fatalf("TransientError = %+v", te)
	}
	// Later attempts advance past the burst (at most 8 here): the page
	// recovers within a bounded number of caller-level retries.
	recovered := false
	for r := 0; r < 3 && !recovered; r++ {
		recovered = f.Read(0, buf) == nil
	}
	if !recovered {
		t.Fatal("page should recover once attempts pass the burst")
	}
}

// TestStickyPageGoesDead verifies a sticky-bad page exhausts its budget and
// surfaces as DeadPageError with the dead counter advanced.
func TestStickyPageGoesDead(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	if _, err := f.Append(fill(f.PageSize(), 7)); err != nil {
		t.Fatal(err)
	}
	sim.SetFaultPlan(iosim.FaultPlan{Seed: 1, StickyRate: 1.0})
	buf := make([]byte, f.PageSize())
	err := f.Read(0, buf)
	var dpe *DeadPageError
	if !errors.As(err, &dpe) {
		t.Fatalf("Read = %v, want DeadPageError", err)
	}
	if got := sim.FaultCounters().DeadPages; got != 1 {
		t.Fatalf("dead counter = %d, want 1", got)
	}
}

// TestInjectedBitrotDetected verifies plan-injected bit flips are caught by
// the checksum and counted, with rereads charged.
func TestInjectedBitrotDetected(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	if _, err := f.Append(fill(f.PageSize(), 7)); err != nil {
		t.Fatal(err)
	}
	sim.SetFaultPlan(iosim.FaultPlan{Seed: 1, CorruptRate: 1.0})
	buf := make([]byte, f.PageSize())
	err := f.Read(0, buf)
	var cpe *CorruptPageError
	if !errors.As(err, &cpe) {
		t.Fatalf("Read = %v, want CorruptPageError", err)
	}
	fc := sim.FaultCounters()
	if fc.CorruptPages != 1 {
		t.Fatalf("corrupt counter = %d, want 1", fc.CorruptPages)
	}
	if fc.Rereads == 0 {
		t.Fatal("checksum mismatch should trigger charged rereads")
	}
}

// TestLatencySpikeCharged verifies latency faults slow reads down without
// failing them.
func TestLatencySpikeCharged(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	if _, err := f.Append(fill(f.PageSize(), 7)); err != nil {
		t.Fatal(err)
	}
	sim.SetFaultPlan(iosim.FaultPlan{Seed: 1, LatencyRate: 1.0, LatencySpike: 40 * time.Millisecond})
	before := sim.Now()
	buf := make([]byte, f.PageSize())
	if err := f.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if got := sim.Now() - before; got < 40*time.Millisecond {
		t.Fatalf("spike not charged: elapsed %v", got)
	}
}

// TestFaultScheduleDeterministicOnClock verifies two identical clock-forked
// readers observe identical fault schedules and counters.
func TestFaultScheduleDeterministicOnClock(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	for i := 0; i < 32; i++ {
		if _, err := f.Append(fill(f.PageSize(), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	sim.SetFaultPlan(iosim.FaultPlan{Seed: 42, TransientRate: 0.3, TransientBurst: 2, CorruptRate: 0.05})
	run := func() (errs []string, fc iosim.FaultCounters) {
		clk := sim.Fork()
		v := f.OnClock(clk)
		buf := make([]byte, f.PageSize())
		for i := int64(0); i < 32; i++ {
			if err := v.Read(i, buf); err != nil {
				errs = append(errs, err.Error())
			}
		}
		return errs, clk.FaultCounters()
	}
	e1, c1 := run()
	e2, c2 := run()
	if len(e1) != len(e2) || c1 != c2 {
		t.Fatalf("fault schedule not deterministic: %v/%+v vs %v/%+v", e1, c1, e2, c2)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("error %d differs: %q vs %q", i, e1[i], e2[i])
		}
	}
}
