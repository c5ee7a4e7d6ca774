package pagefile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// This file is the tree's one file-system namespace. Outside cmd/, every
// create, rename, remove, directory listing, truncation and whole-file read
// or write goes through it (the nodirectio analyzer bans the os calls
// elsewhere), so each durability rule is written once.

// WriteFileAtomic replaces the file at path with data so that a crash at
// any instant leaves either the old contents or the new, never a truncated
// hybrid: data goes to path+".tmp" and is fsynced, the temp file is renamed
// over path, and the directory entry is fsynced. A leftover temp file from
// an interrupted call is never read; LoadJSON removes it and the next call
// overwrites it.
//
// beforeRename, when non-nil, runs between the temp file's fsync and the
// rename — where the delta store places its simulated crash point and
// barrier. If it fails the temp file stays behind, exactly as a power cut
// there would leave it.
func WriteFileAtomic(path string, data []byte, beforeRename func() error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pagefile: writing %s: %w", tmp, err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pagefile: writing %s: %w", tmp, err)
	}
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		Remove(tmp)
		return fmt.Errorf("pagefile: installing %s: %w", path, err)
	}
	// The rename is only durable once the directory entry is.
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("pagefile: syncing directory of %s: %w", path, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pagefile: syncing directory of %s: %w", path, err)
	}
	return nil
}

// SaveJSON installs v at path as indented JSON with WriteFileAtomic: the
// one manifest writer of the tree (delta-store, shard and catalog
// manifests). beforeRename is WriteFileAtomic's.
func SaveJSON(path string, v any, beforeRename func() error) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("pagefile: encoding %s: %w", path, err)
	}
	return WriteFileAtomic(path, append(data, '\n'), beforeRename)
}

// LoadJSON decodes the manifest SaveJSON installed at path into v, after
// removing the temp file an interrupted save left beside it (the installed
// file is the authority). A missing manifest is an error matching
// fs.ErrNotExist.
func LoadJSON(path string, v any) error {
	if err := Remove(path + ".tmp"); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("pagefile: decoding %s: %w", path, err)
	}
	return nil
}

// ReadFile returns the whole contents of the file at path.
func ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Truncate cuts the file at path to size bytes.
func Truncate(path string, size int64) error { return os.Truncate(path, size) }

// Rename moves the file at from to to, replacing any file there.
func Rename(from, to string) error { return os.Rename(from, to) }

// MkdirAll creates dir and any missing parents.
func MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Remove deletes path, and everything under it if it is a directory. A path
// that is already gone is not an error: that is the state every caller
// wants.
func Remove(path string) error { return os.RemoveAll(path) }

// GenPath names generation gen of the file family at prefix: prefix, then
// gen in at least six decimal digits ("view.sv.wal000003").
func GenPath(prefix string, gen uint64) string { return fmt.Sprintf("%s%06d", prefix, gen) }

// Generations lists, in ascending order, the generations of the family at
// prefix that exist on disk. Only names GenPath writes count: a suffix that
// does not round-trip through its format ("7", "000002.bak", "2-backup")
// names some other file. Nor is a directory, so the callers' recursive
// Remove never reaches a tree. A missing directory holds no generation.
func Generations(prefix string) ([]uint64, error) {
	ents, err := os.ReadDir(filepath.Dir(prefix))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range ents {
		suffix, ok := strings.CutPrefix(e.Name(), filepath.Base(prefix))
		gen, err := strconv.ParseUint(suffix, 10, 64)
		if ok && err == nil && GenPath("", gen) == suffix && !e.IsDir() {
			gens = append(gens, gen)
		}
	}
	slices.Sort(gens)
	return gens, nil
}

// AppendFile is an append-only file made durable by Sync: the WAL's
// segment. It has no pages, checksums or clock; its writer frames and
// charges its own bytes.
type AppendFile struct{ f *os.File }

// OpenAppend opens the file at path for appending, creating it if absent.
func OpenAppend(path string) (*AppendFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &AppendFile{f: f}, nil
}

// Write appends b.
func (a *AppendFile) Write(b []byte) (int, error) { return a.f.Write(b) }

// Sync makes every byte written so far durable.
func (a *AppendFile) Sync() error { return a.f.Sync() }

// Close closes the file; it syncs nothing.
func (a *AppendFile) Close() error { return a.f.Close() }
