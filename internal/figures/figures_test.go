package figures

import (
	"testing"
	"time"

	"sampleview/internal/iosim"
)

// testConfig is a scaled-down configuration so the whole suite runs in a
// few seconds; the full-scale runs live in cmd/svbench and bench_test.go.
func testConfig() Config {
	return Config{
		N:          60_000,
		Queries:    3,
		Seed:       99,
		Model:      iosim.DefaultModel(),
		MemPages:   32,
		GridPoints: 40,
		Physical:   true, // raw disk model: the assertions below target the
		// small-scale transient regime, not the scale-matched geometry
	}
}

func checkFigure(t *testing.T, fig *Figure, wantSeries int) {
	t.Helper()
	if len(fig.Series) != wantSeries {
		t.Fatalf("figure %s has %d series, want %d", fig.ID, len(fig.Series), wantSeries)
	}
	for _, s := range fig.Series {
		if len(s.X) != len(s.Y) || len(s.X) == 0 {
			t.Fatalf("figure %s series %q has bad lengths", fig.ID, s.Name)
		}
		for i := 1; i < len(s.X); i++ {
			if s.X[i] <= s.X[i-1] {
				t.Fatalf("figure %s series %q x-axis not increasing", fig.ID, s.Name)
			}
		}
	}
}

func lastY(s Series) float64 { return s.Y[len(s.Y)-1] }

func TestWorkbenchValidation(t *testing.T) {
	if _, err := NewWorkbench(testConfig(), 3); err == nil {
		t.Fatal("dims=3 accepted")
	}
}

func TestFig1DShape(t *testing.T) {
	wb, err := NewWorkbench(testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Fig1DOn(wb, "12", 0.025, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4) // the three competitors and the ACE Tree's own read path
	// Sampling-rate curves are cumulative, hence nondecreasing.
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("series %q decreases", s.Name)
			}
		}
	}
	// The paper's headline: the ACE Tree dominates both alternatives early
	// for selective queries.
	ace, bt, perm := fig.Series[0], fig.Series[1], fig.Series[2]
	if lastY(ace) <= lastY(bt) || lastY(ace) <= lastY(perm) {
		t.Fatalf("ACE=%v B+=%v perm=%v: ACE should lead at 2.5%% selectivity",
			lastY(ace), lastY(bt), lastY(perm))
	}
}

func TestFig14RunsToCompletion(t *testing.T) {
	cfg := testConfig()
	cfg.Queries = 2
	wb, err := NewWorkbench(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Fig14On(wb)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4)
	// Every method must end having returned ~2.5% of the relation.
	for _, s := range fig.Series {
		if got := lastY(s); got < 1.5 || got > 3.5 {
			t.Fatalf("series %q completes at %v%%, want ~2.5%%", s.Name, got)
		}
	}
	// The permuted file must complete by 100% of scan time: its curve is
	// flat at the end value from x=100 on.
	perm := fig.Series[2]
	for i, x := range perm.X {
		if x >= 110 && perm.Y[i] < lastY(perm) {
			t.Fatalf("permuted file still climbing at %v%% of scan", x)
		}
	}
}

func TestFig15Envelopes(t *testing.T) {
	wb, err := NewWorkbench(testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Fig15On(wb, "15b", 0.025)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	mins, means, maxs := fig.Series[0], fig.Series[1], fig.Series[2]
	for i := range means.Y {
		if mins.Y[i] > means.Y[i] || means.Y[i] > maxs.Y[i] {
			t.Fatalf("envelope violated at point %d", i)
		}
	}
	// Buffering is a small fraction of the relation (the paper's point).
	for i := range maxs.Y {
		if maxs.Y[i] > 0.05 {
			t.Fatalf("buffered %v of the relation: too much", maxs.Y[i])
		}
	}
}

func TestFig2DShape(t *testing.T) {
	wb, err := NewWorkbench(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// At the scaled-down test size the window must stay wide and the
	// query selective for the asymptotic ordering to be visible (at 2.5%+
	// selectivity and a short window the permuted scan is competitive,
	// which is the paper's own Figure 18 observation).
	fig, err := Fig2DOn(wb, "16", 0.0025, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	// ACE must beat the permuted file at this selectivity. The R-Tree
	// ordering is scale-dependent: at test size its handful of relevant
	// pages is cached after a few faults, so it can exhaust the predicate
	// early; the paper's ordering emerges at the full experiment scale
	// where the relevant page set dwarfs the cache (see EXPERIMENTS.md).
	ace, rt, perm := fig.Series[0], fig.Series[1], fig.Series[2]
	if lastY(ace) <= lastY(perm) {
		t.Fatalf("ACE=%v perm=%v: ACE should lead the permuted file at 0.25%% selectivity",
			lastY(ace), lastY(perm))
	}
	if lastY(rt) <= 0 {
		t.Fatal("R-Tree returned nothing")
	}
}

func TestGenerateUnknownFigure(t *testing.T) {
	if FigureDims("99") != 0 {
		t.Fatal("unknown figure given a workbench")
	}
	cfg := testConfig()
	cfg.N = 2_000
	wb, err := NewWorkbench(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateOn(wb, "99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestGenerateDispatch(t *testing.T) {
	// Exercise the public entry point on the cheapest figure.
	cfg := testConfig()
	cfg.N = 20_000
	cfg.Queries = 2
	wb, err := NewWorkbench(cfg, FigureDims("11"))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := GenerateOn(wb, "11")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4)
}

func TestCurveAt(t *testing.T) {
	var c curve
	c.add(0, 0)
	c.add(10*time.Millisecond, 5)
	c.add(20*time.Millisecond, 9)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0},
		{5 * time.Millisecond, 0},
		{10 * time.Millisecond, 5},
		{15 * time.Millisecond, 5},
		{25 * time.Millisecond, 9},
	}
	for _, cse := range cases {
		if got := c.at(cse.t); got != cse.want {
			t.Fatalf("at(%v) = %v, want %v", cse.t, got, cse.want)
		}
	}
}
