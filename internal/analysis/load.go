package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// skipDirs are directory names never descended into by LoadTree: fixture
// trees contain intentional violations, and the rest hold no Go code.
var skipDirs = map[string]bool{
	"testdata": true,
	"results":  true,
	"vendor":   true,
}

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadTree parses every package under root (recursively), skipping hidden
// directories, testdata trees and directories without Go files, in walk
// order. Rel paths are computed against modRoot, which must contain root.
func LoadTree(fset *token.FileSet, root, modRoot string) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || skipDirs[name]) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(modRoot, p)
		if err != nil {
			return err
		}
		pkg, err := LoadDir(fset, p, filepath.ToSlash(rel))
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// LoadDir parses the single directory dir as one Package with the given
// module-relative path, returning nil if it holds no Go files. Files that
// fail to parse abort the load: the linter refuses to bless a tree it
// cannot read.
func LoadDir(fset *token.FileSet, dir, rel string) (*Package, error) {
	if rel == "." {
		rel = ""
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	pkg := &Package{Fset: fset, Rel: rel, Dir: dir}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		test := strings.HasSuffix(name, "_test.go")
		if !test && pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
		pkg.Files = append(pkg.Files, &File{AST: f, Name: name, Test: test})
	}
	if pkg.Name == "" { // test-only directory
		pkg.Name = strings.TrimSuffix(pkg.Files[0].AST.Name.Name, "_test")
	}
	return pkg, nil
}
