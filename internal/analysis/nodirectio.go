package analysis

import "go/ast"

// NoDirectIO keeps internal/pagefile the only I/O entry point, for pages
// and for the file-system namespace alike. With the real-I/O backends
// (pread, mmap) behind the pagefile.Backend interface, any other package
// opening an os.File for itself would read pages that bypass checksum
// verification, fault injection and the simulated-clock charging at once —
// three invariants at a stroke. And a file the store creates, renames,
// removes, lists, truncates or reads or writes whole is crash state: its
// durability rules (sync the temp file, then rename, then sync the
// directory; "already gone" is success) are written once, in pagefile's
// namespace functions, which a crash model can replace as one.
//
// This analyzer bans acquiring an os.File handle (os.Open, os.OpenFile,
// os.Create, os.NewFile) and the namespace calls (os.Rename, os.Remove,
// os.RemoveAll, os.ReadDir, os.MkdirAll, os.Truncate, os.ReadFile,
// os.WriteFile) outside internal/pagefile, and the raw descriptors
// underneath them (syscall.Open, syscall.Openat) everywhere including
// pagefile — even the sanctioned owner goes through os, never the syscall
// layer directly. Metadata reads such as os.Stat stay legal.
//
// Scope: non-test files outside cmd/, internal/analysis and
// internal/pagefile. The command-line tools and the analyzer's own source
// loader are host-side programs; pagefile is the sanctioned owner.
var NoDirectIO = &Analyzer{
	Name: "nodirectio",
	Doc:  "ban os.File acquisition and file-system namespace calls outside internal/pagefile",
	Run:  runNoDirectIO,
}

// fileOpenFns are the package-level os functions that yield an *os.File.
var fileOpenFns = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "NewFile": true,
}

// namespaceFns are the os functions that create, rename, remove, list,
// truncate, or read or write whole a file by name.
var namespaceFns = map[string]bool{
	"Rename": true, "Remove": true, "RemoveAll": true, "ReadDir": true,
	"MkdirAll": true, "Truncate": true, "ReadFile": true, "WriteFile": true,
}

// sysOpenFns are the syscall-level descriptor acquisitions, banned
// everywhere: a bare fd has no place to hang checksums or fault injection,
// so not even pagefile gets to use one.
var sysOpenFns = map[string]bool{
	"Open": true, "Openat": true,
}

func runNoDirectIO(pass *Pass) {
	p := pass.Pkg
	if p.inDir("cmd") || p.inDir("internal/analysis") {
		return
	}
	inPagefile := p.inDir("internal/pagefile")
	eachCall(pass, func(tab map[string]string, call *ast.CallExpr) {
		if name, ok := pkgCall(tab, call, "os"); ok && !inPagefile {
			if fileOpenFns[name] {
				pass.Reportf(call.Pos(),
					"os.%s acquires a raw file handle outside internal/pagefile; page I/O must go through a pagefile.Backend", name)
			}
			if namespaceFns[name] {
				pass.Reportf(call.Pos(),
					"os.%s touches the file-system namespace outside internal/pagefile; use pagefile's namespace functions", name)
			}
		}
		if name, ok := pkgCall(tab, call, "syscall"); ok && sysOpenFns[name] {
			pass.Reportf(call.Pos(),
				"syscall.%s acquires a raw descriptor; use the os package so the handle stays visible to checksums and fault injection", name)
		}
	})
}
