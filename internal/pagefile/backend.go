package pagefile

import (
	"fmt"
	"os"

	"sampleview/internal/iosim"
)

// BackendKind selects how an OS-backed page file performs raw page I/O.
type BackendKind int

const (
	// BackendDefault resolves to BackendPread unless the SV_PAGEFILE_BACKEND
	// environment variable names another kind ("mmap" or "pread"); the
	// override is how CI forces the whole test suite through the mmap path.
	BackendDefault BackendKind = iota
	// BackendPread serves pages with positional reads (one copy per read):
	// the portable baseline.
	BackendPread
	// BackendMmap maps the file read-only at open and serves mapped pages
	// zero-copy. Writes and pages appended after open fall back to
	// positional I/O, and platforms without mmap fall back to BackendPread
	// entirely.
	BackendMmap
)

// String names the kind for flags and reports.
func (k BackendKind) String() string {
	switch k {
	case BackendPread:
		return "pread"
	case BackendMmap:
		return "mmap"
	default:
		return "default"
	}
}

// ParseBackendKind maps a flag/env spelling to a BackendKind.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "", "default":
		return BackendDefault, nil
	case "pread":
		return BackendPread, nil
	case "mmap":
		return BackendMmap, nil
	}
	return BackendDefault, fmt.Errorf("pagefile: unknown backend %q (want pread or mmap)", s)
}

// OpenOptions selects the real-I/O fast path for OpenWith.
type OpenOptions struct {
	// Backend picks the raw page I/O implementation.
	Backend BackendKind
}

// resolve applies the environment override to BackendDefault.
func (k BackendKind) resolve() BackendKind {
	if k != BackendDefault {
		return k
	}
	if env, err := ParseBackendKind(os.Getenv("SV_PAGEFILE_BACKEND")); err == nil && env != BackendDefault {
		return env
	}
	return BackendPread
}

// OpenWith opens an existing OS-backed page file at path on sim like Open,
// choosing the raw-I/O backend. The superblock check is identical across
// backends, and so is every byte a caller reads: the backend only changes
// how fast the wall clock moves, never what the simulated clock charges.
func OpenWith(sim *iosim.Sim, path string, opts OpenOptions) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: stat %s: %w", path, err)
	}
	phys := sim.Model().PageSize
	ps := int64(phys)
	if st.Size()%ps != 0 {
		f.Close()
		return nil, fmt.Errorf("pagefile: %s size %d is not a multiple of page size %d", path, st.Size(), ps)
	}
	npages := st.Size() / ps

	var b Backend
	if opts.Backend.resolve() == BackendMmap && mmapAvailable {
		mb, err := newMmapBackend(f, phys, npages)
		if err != nil {
			f.Close()
			return nil, err
		}
		b = mb
	} else {
		b = &osBackend{f: f, pageSize: phys, npages: npages}
	}

	if err := readSuper(b, phys); err != nil {
		b.Close()
		return nil, fmt.Errorf("pagefile: open %s: %w", path, err)
	}
	return newFile(sim, b, 1), nil
}
