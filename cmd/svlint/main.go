// Command svlint runs the repository's static-analysis suite: a
// standard-library-only multichecker for the contracts the paper's
// measurements rest on and no test can see broken — seeded randomness,
// simulated time only, page I/O only through internal/pagefile, and no
// process exit from library code. See internal/analysis for the individual
// checks, DESIGN.md "Enforced invariants" for the contract each encodes,
// and results/lint-catches.md for why the suite holds these and no others.
//
// Usage:
//
//	svlint [-list] [packages]
//
// Package patterns are directories relative to the current working
// directory; a trailing /... recurses. With no arguments, ./... is
// assumed. Findings can be silenced case by case with a
// "//lint:ignore <analyzer> <reason>" comment on or directly above the
// offending line; unused or malformed directives are themselves reported.
// svlint exits 0 when the tree is clean, 1 when it found violations, and 2
// on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"sampleview/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	modRoot, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}

	fset := token.NewFileSet()
	var pkgs []*analysis.Package
	for _, pat := range patterns {
		dir, recurse := strings.CutSuffix(pat, "...")
		dir = filepath.Clean(dir)
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		if recurse {
			loaded, err := analysis.LoadTree(fset, dir, modRoot)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, loaded...)
			continue
		}
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			fatal(err)
		}
		pkg, err := analysis.LoadDir(fset, dir, filepath.ToSlash(rel))
		if err != nil {
			fatal(err)
		}
		if pkg == nil {
			fatal(fmt.Errorf("no Go files in %s", dir))
		}
		pkgs = append(pkgs, pkg)
	}

	diags := analysis.RunSuite(pkgs, analysis.All())
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "svlint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "svlint: %v\n", err)
	os.Exit(2)
}
