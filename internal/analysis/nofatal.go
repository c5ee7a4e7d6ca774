package analysis

import (
	"go/ast"
	"strings"
)

// NoFatal enforces the library's failure-handling contract end to end: a
// library never decides that the process dies. log.Fatal*, log.Panic* and
// os.Exit abort without unwinding — deferred Closes are skipped, served
// connections drop mid-frame, and the caller gets no typed error to retry
// or degrade on. Storage faults must instead flow upward as errors
// (TransientIOError, CorruptPageError, DegradedError, ...) so every layer
// can apply its own policy.
//
// Scope: non-test files outside cmd/. A command's main owns
// the process and may exit with a status code; everything else returns.
//
// The check is syntactic, matching direct calls of package-level functions
// of the standard "log" and "os" packages via each file's import table;
// a shadowing local identifier disqualifies the match.
var NoFatal = &Analyzer{
	Name: "nofatal",
	Doc:  "no process-aborting calls (log.Fatal*, log.Panic*, os.Exit) in library code",
	Run:  runNoFatal,
}

func runNoFatal(pass *Pass) {
	p := pass.Pkg
	if p.inDir("cmd") {
		return
	}
	eachCall(pass, func(tab map[string]string, call *ast.CallExpr) {
		if name, ok := pkgCall(tab, call, "log"); ok &&
			(strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic")) {
			pass.Reportf(call.Pos(),
				"log.%s aborts the process from library code; return a typed error and let the caller decide", name)
		}
		if name, ok := pkgCall(tab, call, "os"); ok && name == "Exit" {
			pass.Reportf(call.Pos(),
				"os.Exit aborts the process from library code; return a typed error and let the caller decide")
		}
	})
}
