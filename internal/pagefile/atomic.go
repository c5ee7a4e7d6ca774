package pagefile

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces the file at path with data so that a crash at
// any instant leaves either the old contents or the new, never a truncated
// hybrid: data goes to path+".tmp" and is fsynced, the temp file is renamed
// over path, and the directory entry is fsynced. It is the one manifest
// writer of the tree (delta-store, shard and catalog manifests). A leftover
// temp file from an interrupted call is never read; the next call
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
		os.Remove(tmp)
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
