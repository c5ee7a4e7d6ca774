// Package analysis is a small, standard-library-only static-analysis
// framework plus the repository's analyzer suite. The analyzers guard the
// contracts the paper's measurements rest on and no test can observe a
// violation of: every random draw comes from a seed, no wall-clock time
// enters simulated code, every page access goes through internal/pagefile
// (and so is checksummed, fault-injected and charged to the simulated
// disk), and library code never ends the process. results/lint-catches.md
// records why these four are the ones kept.
//
// The framework is deliberately syntactic: packages are parsed with
// go/parser (comments included) and analyzers work on the AST with
// file-level import resolution, which keeps the tool free of build-system
// dependencies (no go/packages, no export data) while remaining exact for
// the repository's own idioms. Each analyzer documents the approximation it
// makes; the golden fixtures under testdata/src pin the behaviour.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way compilers do, so editors can jump
// to it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// File is one parsed source file of a package.
type File struct {
	AST  *ast.File
	Name string // base file name, e.g. "build.go"
	Test bool   // true for *_test.go files
}

// Package is one directory's worth of parsed files. Test files are loaded
// and marked; every analyzer in this suite skips them (tests may
// legitimately use timeouts, ad-hoc randomness, and panics).
type Package struct {
	Fset *token.FileSet
	// Name is the package name declared by the non-test files.
	Name string
	// Rel is the slash-separated directory path relative to the module
	// root ("" for the root package). Analyzers use it to scope rules:
	// cmd/ and examples/ are host-side code exempt from the simulation
	// contracts.
	Rel   string
	Dir   string
	Files []*File
}

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	Pkg  *Package
	name string
	out  *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoGlobalRand,
		NoWallClock,
		NoDirectIO,
		NoFatal,
	}
}

// Run applies every analyzer to every package and returns the diagnostics
// sorted; the sort ties down to the message, so output is deterministic.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Pkg: pkg, name: a.Name, out: &out})
		}
	}
	sortDiags(out)
	return out
}

// Names returns every analyzer name plus "directive", the name hygiene
// findings report under — the "known" set that lint:ignore directives are
// validated against.
func Names() map[string]bool {
	known := map[string]bool{"directive": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// RunSuite runs analyzers over pkgs, filters the output through the
// lint:ignore directives collected from pkgs, and appends the directive
// hygiene diagnostics.
func RunSuite(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	out := Run(pkgs, analyzers)
	active := make(map[string]bool)
	for _, a := range analyzers {
		active[a.Name] = true
	}
	out = collectDirectives(pkgs).apply(out, active, Names())
	sortDiags(out)
	return out
}

// sortDiags orders diagnostics by file, line, column, analyzer, message.
func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
}

// inDir reports whether the package lives in (or under) the given
// top-level directory of the module.
func (p *Package) inDir(dir string) bool {
	return p.Rel == dir || strings.HasPrefix(p.Rel, dir+"/")
}

var versionSuffix = regexp.MustCompile(`^v[0-9]+$`)

// importTable maps each import's local name to its import path for one
// file. Unnamed imports get their default name: the last path element,
// skipping a major-version suffix ("math/rand/v2" is named "rand").
func importTable(f *ast.File) map[string]string {
	tab := make(map[string]string, len(f.Imports))
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(p)
		if versionSuffix.MatchString(name) {
			name = path.Base(path.Dir(p))
		}
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		tab[name] = p
	}
	return tab
}

// pkgCall reports whether call is a direct call of a package-level function
// of the package imported under importPath in the file described by tab
// (e.g. rand.Intn where rand is "math/rand"). It returns the function name.
// A local declaration shadowing the package name (detected via the parser's
// object resolution) disqualifies the match.
func pkgCall(tab map[string]string, call *ast.CallExpr, importPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Obj != nil {
		return "", false
	}
	if tab[id.Name] != importPath {
		return "", false
	}
	return sel.Sel.Name, true
}
