package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture parses one testdata/src directory as a package with the
// given module-relative path (which analyzers use to scope their rules).
func loadFixture(t *testing.T, fixture, rel string) *Package {
	t.Helper()
	pkg, err := LoadDir(token.NewFileSet(), filepath.Join("testdata", "src", fixture), rel)
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s holds no Go files", fixture)
	}
	return pkg
}

// want is one expected diagnostic: an exact file and line plus a regexp
// the message must match.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("want `([^`]*)`")

// collectWants extracts the // want `regex` annotations from a fixture.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				wants = append(wants, &want{
					file: f.Name,
					line: pkg.Fset.Position(c.Pos()).Line,
					re:   re,
				})
			}
		}
	}
	return wants
}

// TestAnalyzers runs each analyzer over its fixture and demands an exact
// 1:1 match between reported diagnostics and // want annotations: same
// file, same line, message matching the regexp, nothing extra, nothing
// missing.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
		rel      string
	}{
		{NoGlobalRand, "noglobalrand", "internal/fixture"},
		{NoWallClock, "nowallclock", "internal/fixture"},
		{NoDirectIO, "nodirectio", "internal/fixture"},
		{NoFatal, "nofatal", "internal/fixture"},
	}
	for _, c := range cases {
		t.Run(c.analyzer.Name, func(t *testing.T) {
			pkg := loadFixture(t, c.fixture, c.rel)
			wants := collectWants(t, pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s carries no want annotations", c.fixture)
			}
			diags := Run([]*Package{pkg}, []*Analyzer{c.analyzer})
			for _, d := range diags {
				if d.Analyzer != c.analyzer.Name {
					t.Errorf("diagnostic attributed to %q, want %q", d.Analyzer, c.analyzer.Name)
				}
			}
			matchExact(t, wants, diags)
		})
	}
}

// TestScopeExemptions re-loads violating fixtures under module paths the
// analyzers exempt (examples/, cmd/) and demands silence.
func TestScopeExemptions(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
		rel      string
	}{
		{NoGlobalRand, "noglobalrand", "examples/demo"},
		{NoWallClock, "nowallclock", "cmd/tool"},
		{NoWallClock, "nowallclock", "examples/demo"},
		{NoDirectIO, "nodirectio", "cmd/tool"},
		{NoDirectIO, "nodirectio", "examples/demo"},
		{NoFatal, "nofatal", "cmd/tool"},
		{NoFatal, "nofatal", "examples/demo"},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s@%s", c.analyzer.Name, c.rel)
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, c.fixture, c.rel)
			for _, d := range Run([]*Package{pkg}, []*Analyzer{c.analyzer}) {
				t.Errorf("diagnostic in exempt scope %q: %s", c.rel, d)
			}
		})
	}
}

// TestNoDirectIOPagefileSplit pins the asymmetry of the nodirectio scopes:
// internal/pagefile is the sanctioned owner of os.File handles, but the
// syscall layer stays banned even there.
func TestNoDirectIOPagefileSplit(t *testing.T) {
	pkg := loadFixture(t, "nodirectio", "internal/pagefile")
	diags := Run([]*Package{pkg}, []*Analyzer{NoDirectIO})
	for _, d := range diags {
		if !strings.Contains(d.Message, "syscall.") {
			t.Errorf("os-level diagnostic inside internal/pagefile: %s", d)
		}
	}
	want := 2 // syscall.Open and syscall.Openat in the fixture
	if len(diags) != want {
		t.Errorf("got %d diagnostics in internal/pagefile, want %d (the syscall sites)", len(diags), want)
	}
}

// TestImportTable pins the default-name resolution, in particular the
// major-version suffix rule that makes math/rand/v2 import as "rand".
func TestImportTable(t *testing.T) {
	pkg := loadFixture(t, "noglobalrand", "internal/fixture")
	for _, f := range pkg.Files {
		if f.Name != "bad.go" {
			continue
		}
		tab := importTable(f.AST)
		if tab["rand"] != "math/rand" {
			t.Errorf(`tab["rand"] = %q, want "math/rand"`, tab["rand"])
		}
		if tab["randv2"] != "math/rand/v2" {
			t.Errorf(`tab["randv2"] = %q, want "math/rand/v2"`, tab["randv2"])
		}
		if tab["time"] != "time" {
			t.Errorf(`tab["time"] = %q, want "time"`, tab["time"])
		}
	}
}

// matchExact demands a 1:1 match between diagnostics and want annotations:
// same file, same line, message matching the regexp, nothing extra, nothing
// missing. It consumes the wants slice.
func matchExact(t *testing.T, wants []*want, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		if d.Pos.Column <= 0 {
			t.Errorf("%s: diagnostic without a column", d.Pos)
		}
		base := filepath.Base(d.Pos.Filename)
		matched := false
		for i, w := range wants {
			if w != nil && w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				wants[i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", base, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if w != nil {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
}

// TestSuppression runs the directive fixture through the full pipeline:
// justified suppressions silence their findings, and the hygiene
// diagnostics (unused, unknown, malformed) surface at the directives.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "directive", "internal/fixture")
	wants := collectWants(t, pkg)
	if len(wants) == 0 {
		t.Fatal("directive fixture carries no want annotations")
	}
	diags := RunSuite([]*Package{pkg}, []*Analyzer{NoDirectIO})
	matchExact(t, wants, diags)
}

// TestSuppressionInactive pins the hygiene scoping rule: a directive for an
// analyzer that is known but not part of the active run is never reported
// as unused, so single-analyzer runs do not flag exemptions aimed at other
// checks.
func TestSuppressionInactive(t *testing.T) {
	pkg := loadFixture(t, "directive", "internal/fixture")
	diags := RunSuite([]*Package{pkg}, []*Analyzer{NoFatal})
	for _, d := range diags {
		if d.Analyzer == "directive" && d.Message == "unused lint:ignore suppression for nodirectio" {
			t.Errorf("nodirectio suppression reported unused in a run without nodirectio: %s", d)
		}
	}
}

// TestTreeCleanAtHead is the meta-test: the full suite plus directive
// hygiene over the whole repository must be silent. A failure here is a
// real contract violation in the tree (or a stale lint:ignore) — fix the
// code, not this test.
func TestTreeCleanAtHead(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadTree(token.NewFileSet(), root, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; loader is missing the tree", len(pkgs), root)
	}
	for _, d := range RunSuite(pkgs, All()) {
		t.Errorf("violation at HEAD: %s", d)
	}
}
