package analysis

import (
	"go/ast"
	"strings"
)

// NoWallClock enforces the simulated-time contract: inside the library —
// the root package and everything under internal/ — the only legal time
// source is the iosim clock (Sim.Now / Clock.Now). Reading the wall clock
// there would leak host timing into simulated results, breaking the
// paper's cost model and the determinism of every figure.
//
// Escape: a function whose doc comment contains the phrase "wall clock" may
// use these functions — the comment is the author's declaration that real
// time is the point (network deadlines guarding against stalled peers,
// retry backoff pauses), not an accident. The phrase must appear in the
// function's own doc comment, making every exemption grep-able and
// reviewed.
//
// Scope: non-test files outside cmd/ and examples/. The command-line tools
// legitimately report host elapsed time; tests may use timeouts.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "ban wall-clock time in simulated code (use the iosim Clock)",
	Run:  runNoWallClock,
}

// wallClockFns are the package-level time functions that observe or depend
// on the wall clock. Pure constructors and constants (time.Duration,
// time.Millisecond arithmetic) remain legal: the disk model is expressed
// in durations.
var wallClockFns = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

func runNoWallClock(pass *Pass) {
	p := pass.Pkg
	if p.inDir("cmd") || p.inDir("examples") {
		return
	}
	for _, f := range p.Files {
		if f.Test {
			continue
		}
		tab := importTable(f.AST)
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil &&
				strings.Contains(strings.ToLower(fd.Doc.Text()), "wall clock") {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := pkgCall(tab, call, "time"); ok && wallClockFns[name] {
					pass.Reportf(call.Pos(),
						"time.%s reads the wall clock in simulated code; use the iosim Sim/Clock, or document the exemption with \"wall clock\" in the function comment", name)
				}
				return true
			})
		}
	}
}
