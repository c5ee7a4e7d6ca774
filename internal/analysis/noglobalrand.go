package analysis

import "go/ast"

// NoGlobalRand enforces the repository's seeded-randomness contract: all
// randomness must flow from an explicit seeded *rand.Rand (or PCG/ChaCha8
// source), never from the process-global math/rand source and never from a
// time-derived seed. Global-source draws make builds and experiments
// irreproducible; time seeds defeat deterministic replay, which the
// byte-identical-at-any-parallelism guarantee of the construction pipeline
// depends on.
//
// Scope: every non-test file, commands included (_test.go files may use
// testing-local randomness, though in practice the suite seeds
// everything).
var NoGlobalRand = &Analyzer{
	Name: "noglobalrand",
	Doc:  "ban the global math/rand source and time-seeded sources",
	Run:  runNoGlobalRand,
}

// randPaths are the package paths the analyzer recognizes.
var randPaths = []string{"math/rand", "math/rand/v2"}

// globalRandFns are the package-level convenience functions that draw from
// the global source, across both math/rand and math/rand/v2.
var globalRandFns = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "IntN": true, "N": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true, "Shuffle": true,
	"Read": true,
}

// randCtors are the source/generator constructors; they are legal only when
// their arguments carry no wall-clock dependency.
var randCtors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
	"NewZipf": true,
}

// timeNowFns and timeNowMethods describe "reads the wall clock" for the
// time-seeded check: time.Now()... or anything().UnixNano() and friends.
var timeNowFns = map[string]bool{"Now": true}
var timeNowMethods = map[string]bool{
	"UnixNano": true, "UnixMicro": true, "UnixMilli": true, "Unix": true,
}

// ctorSeededFromClock reports whether a rand constructor call takes a
// wall-clock-derived argument, without descending into nested rand
// constructors: rand.New(rand.NewSource(time.Now()...)) charges the inner
// call only, so each violation is reported exactly once.
func ctorSeededFromClock(tab map[string]string, ctor *ast.CallExpr) bool {
	found := false
	for _, arg := range ctor.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, rp := range randPaths {
				if name, ok := pkgCall(tab, call, rp); ok && randCtors[name] {
					return false // the nested constructor owns its own seed
				}
			}
			if name, ok := pkgCall(tab, call, "time"); ok && timeNowFns[name] {
				found = true
				return false
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && timeNowMethods[sel.Sel.Name] {
				found = true
				return false
			}
			return true
		})
	}
	return found
}

func runNoGlobalRand(pass *Pass) {
	eachCall(pass, func(tab map[string]string, call *ast.CallExpr) {
		for _, rp := range randPaths {
			name, ok := pkgCall(tab, call, rp)
			if !ok {
				continue
			}
			switch {
			case globalRandFns[name]:
				pass.Reportf(call.Pos(),
					"rand.%s draws from the global %s source; pass an explicitly seeded *rand.Rand", name, rp)
			case randCtors[name]:
				if ctorSeededFromClock(tab, call) {
					pass.Reportf(call.Pos(),
						"rand.%s seeded from the wall clock; use an explicit constant or configured seed", name)
				}
			}
		}
	})
}
