package analysis

import "go/ast"

// NoDirectIO keeps internal/pagefile the only data-plane I/O entry point.
// With the real-I/O backends (pread, mmap) behind the pagefile.Backend
// interface, any other package opening an os.File for itself would read
// pages that bypass checksum verification, fault injection and the
// simulated-clock charging at once — three invariants at a stroke. This
// analyzer bans acquiring an os.File handle
// (os.Open, os.OpenFile, os.Create, os.NewFile) outside internal/pagefile,
// and the raw descriptors underneath it (syscall.Open, syscall.Openat)
// everywhere including pagefile — even the sanctioned owner goes through
// os, never the syscall layer directly.
//
// One-shot whole-file helpers (os.ReadFile, os.WriteFile) stay legal: the
// shard and catalog layers use them for small JSON manifests, which are
// control-plane metadata, not pages, and never flow through a Backend.
//
// Scope: non-test files outside cmd/ and internal/pagefile. The
// command-line tools are host-side programs; pagefile is the sanctioned
// owner of raw file handles.
var NoDirectIO = &Analyzer{
	Name: "nodirectio",
	Doc:  "ban os.File acquisition outside internal/pagefile (the raw-I/O entry point)",
	Run:  runNoDirectIO,
}

// fileOpenFns are the package-level os functions that yield an *os.File.
var fileOpenFns = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "NewFile": true,
}

// sysOpenFns are the syscall-level descriptor acquisitions, banned
// everywhere: a bare fd has no place to hang checksums or fault injection,
// so not even pagefile gets to use one.
var sysOpenFns = map[string]bool{
	"Open": true, "Openat": true,
}

func runNoDirectIO(pass *Pass) {
	p := pass.Pkg
	if p.inDir("cmd") {
		return
	}
	inPagefile := p.inDir("internal/pagefile")
	eachCall(pass, func(tab map[string]string, call *ast.CallExpr) {
		if name, ok := pkgCall(tab, call, "os"); ok && fileOpenFns[name] && !inPagefile {
			pass.Reportf(call.Pos(),
				"os.%s acquires a raw file handle outside internal/pagefile; page I/O must go through a pagefile.Backend (one-shot os.ReadFile/os.WriteFile are fine for manifests)", name)
		}
		if name, ok := pkgCall(tab, call, "syscall"); ok && sysOpenFns[name] {
			pass.Reportf(call.Pos(),
				"syscall.%s acquires a raw descriptor; use the os package so the handle stays visible to checksums and fault injection", name)
		}
	})
}
