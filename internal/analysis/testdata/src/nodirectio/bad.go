// Package fixture exercises the nodirectio analyzer: acquiring an os.File
// handle or touching the file-system namespace outside internal/pagefile is
// a violation.
package fixture

import (
	"os"
	"syscall"
)

func openRaw(path string) (*os.File, error) {
	return os.Open(path) // want `os\.Open acquires a raw file handle outside internal/pagefile`
}

func createRaw(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644) // want `os\.OpenFile acquires a raw file handle outside internal/pagefile`
	if err != nil {
		return err
	}
	return f.Close()
}

func truncateRaw(path string) error {
	f, err := os.Create(path) // want `os\.Create acquires a raw file handle outside internal/pagefile`
	if err != nil {
		return err
	}
	return f.Close()
}

func wrapFD(fd uintptr) *os.File {
	return os.NewFile(fd, "pipe") // want `os\.NewFile acquires a raw file handle outside internal/pagefile`
}

// The file-system namespace is pagefile's too: a whole-file read or write,
// a rename, a removal, a listing, a mkdir or a truncation outside it would
// carry its own copy of the durability rules.
func loadManifest(path string) ([]byte, error) {
	return os.ReadFile(path) // want `os\.ReadFile touches the file-system namespace outside internal/pagefile`
}

func storeManifest(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `os\.WriteFile touches the file-system namespace`
}

func dropManifest(path string) error { return os.Remove(path) } // want `os\.Remove touches the file-system namespace`

func dropView(dir string) error { return os.RemoveAll(dir) } // want `os\.RemoveAll touches the file-system namespace`

func install(tmp, path string) error { return os.Rename(tmp, path) } // want `os\.Rename touches the file-system namespace`

func listSiblings(dir string) ([]os.DirEntry, error) {
	return os.ReadDir(dir) // want `os\.ReadDir touches the file-system namespace`
}

func makeViewDir(dir string) error { return os.MkdirAll(dir, 0o755) } // want `os\.MkdirAll touches the file-system namespace`

func cutTornTail(path string, n int64) error { return os.Truncate(path, n) } // want `os\.Truncate touches the file-system namespace`

// The syscall layer is banned everywhere — even pagefile must go through
// os so handles stay visible to checksums and fault injection.
func sysOpen(path string) (int, error) {
	return syscall.Open(path, 0, 0) // want `syscall\.Open acquires a raw descriptor`
}

func sysOpenat(dirfd int, path string) (int, error) {
	return syscall.Openat(dirfd, path, 0, 0) // want `syscall\.Openat acquires a raw descriptor`
}
