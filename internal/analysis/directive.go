package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives let one specific, justified exception live next to
// the code it excuses instead of widening an analyzer's scope:
//
//	//lint:ignore nodirectio the live segment is an append-only handle the group committer fsyncs per cohort
//	f, err := os.OpenFile(segPath(prefix, l.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
//
// The directive names one or more analyzers (comma-separated) and carries a
// mandatory free-text reason; it silences matching diagnostics reported on
// its own line or on the line directly below it. Directives are themselves
// linted: a missing reason, an unknown analyzer name, or a directive that
// suppresses nothing in a run that includes its analyzer are each reported
// as "directive" diagnostics, so stale exemptions cannot accumulate
// silently.

// directivePrefix is the comment spelling that introduces a suppression.
const directivePrefix = "//lint:ignore"

// Directive is one parsed //lint:ignore comment.
type Directive struct {
	// Analyzers are the analyzer names the directive suppresses.
	Analyzers []string
	// Reason is the mandatory justification text.
	Reason string
}

// parseDirective parses one line comment's text. It returns (nil, nil) for
// comments that are not lint directives at all, and a non-nil error for
// directives that are malformed: no analyzer name, an empty analyzer name
// in the list, or a missing reason.
func parseDirective(text string) (*Directive, error) {
	if !strings.HasPrefix(text, directivePrefix) {
		return nil, nil
	}
	rest := text[len(directivePrefix):]
	// Require a separator so "//lint:ignoreX" is not a directive.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, nil
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, fmt.Errorf("lint:ignore directive is missing an analyzer name")
	}
	names := strings.Split(fields[0], ",")
	for _, n := range names {
		if n == "" || !isIdent(n) {
			return nil, fmt.Errorf("lint:ignore directive has a malformed analyzer name %q", fields[0])
		}
	}
	if len(fields) < 2 {
		return nil, fmt.Errorf("lint:ignore %s is missing the mandatory reason", fields[0])
	}
	return &Directive{
		Analyzers: names,
		Reason:    strings.Join(fields[1:], " "),
	}, nil
}

// isIdent reports whether s looks like an analyzer name: a non-empty run of
// lower-case letters and digits (the naming convention of this suite).
func isIdent(s string) bool {
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
			return false
		}
	}
	return s != ""
}

// siteDirective is one directive found in a source file, with its position
// and use tracking.
type siteDirective struct {
	pos  token.Position
	d    *Directive
	err  error // malformed directive
	used bool
}

// directiveKey addresses the source line a directive sits on.
type directiveKey struct {
	file string
	line int
}

// directiveSet indexes every directive of a set of packages by source line.
type directiveSet struct {
	all   []*siteDirective
	byKey map[directiveKey][]*siteDirective
}

// collectDirectives gathers the //lint:ignore comments of every non-test
// file of pkgs. Test files are skipped for the same reason analyzers skip
// them: they are not subject to the contracts, so they need no exemptions.
func collectDirectives(pkgs []*Package) *directiveSet {
	ds := &directiveSet{byKey: make(map[directiveKey][]*siteDirective)}
	seen := make(map[*ast.File]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Test || seen[f.AST] {
				continue
			}
			seen[f.AST] = true
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					d, err := parseDirective(c.Text)
					if d == nil && err == nil {
						continue
					}
					sd := &siteDirective{pos: pkg.Fset.Position(c.Pos()), d: d, err: err}
					ds.all = append(ds.all, sd)
					if d != nil {
						k := directiveKey{sd.pos.Filename, sd.pos.Line}
						ds.byKey[k] = append(ds.byKey[k], sd)
					}
				}
			}
		}
	}
	return ds
}

// suppresses reports whether sd silences analyzer name.
func (sd *siteDirective) suppresses(name string) bool {
	for _, a := range sd.d.Analyzers {
		if a == name {
			return true
		}
	}
	return false
}

// apply filters diags through the directive set: a diagnostic is dropped
// when a directive on its line, or on the line directly above, names its
// analyzer. It then appends the directive hygiene diagnostics — malformed
// directives and unknown analyzer names always, unused directives for every
// directive whose analyzers are all part of the active set. The result is
// unsorted; Run sorts.
func (ds *directiveSet) apply(diags []Diagnostic, active, known map[string]bool) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
			for _, sd := range ds.byKey[directiveKey{d.Pos.Filename, line}] {
				if sd.suppresses(d.Analyzer) {
					sd.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, sd := range ds.all {
		if sd.err != nil {
			out = append(out, Diagnostic{Pos: sd.pos, Analyzer: "directive", Message: sd.err.Error()})
			continue
		}
		activeOnly := true
		for _, name := range sd.d.Analyzers {
			if !known[name] {
				out = append(out, Diagnostic{
					Pos: sd.pos, Analyzer: "directive",
					Message: fmt.Sprintf("lint:ignore names unknown analyzer %q", name),
				})
				activeOnly = false
				continue
			}
			if !active[name] {
				activeOnly = false
			}
		}
		if activeOnly && !sd.used {
			out = append(out, Diagnostic{
				Pos: sd.pos, Analyzer: "directive",
				Message: fmt.Sprintf("unused lint:ignore suppression for %s", strings.Join(sd.d.Analyzers, ",")),
			})
		}
	}
	return out
}
