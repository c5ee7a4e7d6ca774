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
	"errors"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sampleview/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages args names, printing findings to stdout, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	modRoot, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return fatal(stderr, err)
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
				return fatal(stderr, err)
			}
			pkgs = append(pkgs, loaded...)
			continue
		}
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return fatal(stderr, err)
		}
		pkg, err := analysis.LoadDir(fset, dir, filepath.ToSlash(rel))
		if err != nil {
			return fatal(stderr, err)
		}
		if pkg == nil {
			return fatal(stderr, fmt.Errorf("no Go files in %s", dir))
		}
		pkgs = append(pkgs, pkg)
	}

	diags := analysis.RunSuite(pkgs, analysis.All())
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "svlint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "svlint: %v\n", err)
	return 2
}
