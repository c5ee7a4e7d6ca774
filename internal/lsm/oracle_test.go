package lsm

import (
	"testing"

	"sampleview/internal/iosim"
	"sampleview/internal/oracle"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// TestWritePathPrefixOracle holds merged streams over the write path to the
// prefix oracle. Every trial writes fresh levels with fresh Seqs: a
// record's stratum is fixed when its level is written (as the base tree's
// draw order is at build time), so streams over one level share its first
// run's records, and only fresh writes make the trials independent.
func TestWritePathPrefixOracle(t *testing.T) {
	// The sampling half of the lazy level's exactness claim: a four-run
	// level beside a base, a second level and a memview, on a predicate cut
	// mid-run, over 300 seeds.
	t.Run("four-run-level", func(t *testing.T) {
		q := record.Box1D(workload.KeyDomain/4, workload.KeyDomain*3/4-1)
		ck := oracle.NewChecker()
		for seed := uint64(1); seed <= 300; seed++ {
			v := buildView(t, testSim(), 400, seed)
			m := oracle.NewModel(mustDrainBase(t, v))
			m.Write(ingest(t, v, 100*testPerPage, seed+1000, seed<<32)...)
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			m.Write(ingest(t, v, 10*testPerPage, seed+2000, seed<<32|1<<30)...)
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			m.Write(ingest(t, v, 50, seed+3000, seed<<32|1<<31)...)
			if n := len(v.Store().snapshotLevels()[1].runEnd); n != 4 {
				t.Fatalf("fixture: the large level has %d runs, want 4", n)
			}
			feedPrefix(t, mustQuery(t, v, q, seed), ck.Stream(m, q), 1000)
		}
		if err := ck.Err(); err != nil {
			t.Fatal(err)
		}
	})

	// Memview and two levels beside a base of the same size, with transient
	// faults striking the reads. The base's share of every prefix must
	// match its share of the population.
	t.Run("components-under-flaky-disk", func(t *testing.T) {
		plan, err := iosim.ProfilePlan("flaky-disk", 34)
		if err != nil {
			t.Fatal(err)
		}
		ck := oracle.NewChecker(1, 10, 30, 100)
		var baseDraws, transients int64
		const trials, prefix = 300, 100
		for trial := uint64(0); trial < trials; trial++ {
			sim := testSim()
			v := buildView(t, sim, 600, 30+trial)
			m := oracle.NewModel(mustDrainBase(t, v))
			first := (3*trial + 1) << 32
			for c := uint64(0); c < 3; c++ {
				m.Write(ingest(t, v, 200, 31+c, first+c<<32)...)
				if c < 2 {
					if err := v.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			sim.SetFaultPlan(plan)
			o := ck.Stream(m, record.FullBox(1))
			for _, rec := range feedPrefix(t, mustQuery(t, v, record.FullBox(1), 1000+trial), o, prefix) {
				if rec.Seq < first {
					baseDraws++
				}
			}
			transients += sim.FaultCounters().Transient
		}
		if err := ck.Err(); err != nil {
			t.Fatal(err)
		}
		// The base holds 600 of 1200 records (30,000 draws: ±0.05 is >17 sigma).
		if frac := float64(baseDraws) / (trials * prefix); frac < 0.45 || frac > 0.55 {
			t.Fatalf("base drew %.3f of the merged prefixes, want ~0.5", frac)
		}
		if transients == 0 {
			t.Fatal("flaky profile injected no transient faults; the test exercised nothing")
		}
	})
}

// feedPrefix pulls the first n records of s into o, retrying transient
// faults, and returns them.
func feedPrefix(t *testing.T, s *Stream, o *oracle.Stream, n int) []record.Record {
	t.Helper()
	defer s.Close()
	var got []record.Record
	for len(got) < n {
		rec, err := s.Next()
		if pagefile.IsTransient(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	o.Add(got...)
	return got
}
