package lsm

import (
	"fmt"
	"time"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/wal"
)

// PartOptions are the runtime settings of one partition: how its stored
// file is read and whether its write path is logged. They shape no stored
// byte of the base tree.
type PartOptions struct {
	// Backend selects the raw-I/O backend for a stored page file at open.
	Backend pagefile.BackendKind
	// WAL logs every insert and delete beside the page file before it is
	// applied; ignored in memory, where nothing survives anyway.
	WAL bool
	// WALGroupWindow is the log's group-commit window (see wal.Options).
	WALGroupWindow time.Duration
}

// Part is one partition of a sample view and the sole owner of its storage:
// the page file holding the base ACE tree, the live write path over it (the
// embedded View: memview plus the delta store beside the file) and the
// optional write-ahead log, all on one simulated disk. An unsharded view is
// one Part; a sharded view is K of them. Every lifecycle step — build,
// open with log recovery, close, fold — lives here and nowhere else.
type Part struct {
	*View
	sim    *iosim.Sim
	path   string   // "" = in memory
	walLog *wal.Log // nil without PartOptions.WAL or in memory
}

// SliceSource adapts a slice to the record iterator BuildPart consumes.
func SliceSource(recs []record.Record) func() (record.Record, bool) {
	i := 0
	return func() (record.Record, bool) {
		if i >= len(recs) {
			return record.Record{}, false
		}
		i++
		return recs[i-1], true
	}
}

// stage writes the records fill emits to a scratch relation on sim, the
// input format of the bulk build. The caller closes the relation's file once
// the build has read it.
func stage(sim *iosim.Sim, fill func(write func(*record.Record) error) error) (*pagefile.ItemFile, error) {
	rel := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	w := rel.NewWriter()
	buf := make([]byte, record.Size)
	err := fill(func(rec *record.Record) error {
		rec.Marshal(buf)
		return w.Write(buf)
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		rel.File().Close()
		return nil, err
	}
	return rel, nil
}

// createFile creates the page file at path on sim ("" = in memory).
func createFile(sim *iosim.Sim, path string) (*pagefile.File, error) {
	if path == "" {
		return pagefile.NewMem(sim), nil
	}
	return pagefile.Create(sim, path)
}

// BuildPart stages the records next yields on sim, bulk-builds their ACE
// tree into a page file at path ("" = in memory) and wraps it in an empty
// write path, clearing any delta files and log segments an earlier
// partition left at path.
func BuildPart(sim *iosim.Sim, path string, next func() (record.Record, bool), p core.Params, o PartOptions) (*Part, error) {
	rel, err := stage(sim, func(write func(*record.Record) error) error {
		for rec, ok := next(); ok; rec, ok = next() {
			if err := write(&rec); err != nil {
				return fmt.Errorf("lsm: staging records: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := createFile(sim, path)
	if err != nil {
		rel.File().Close()
		return nil, err
	}
	tree, err := core.Create(f, rel, p)
	rel.File().Close()
	if err != nil {
		f.Close()
		return nil, err
	}
	return newPart(sim, path, tree, o, true)
}

// OpenPart opens a partition stored by BuildPart: the page file, the delta
// ladder persisted beside it, and — with o.WAL — the log, whose unflushed
// operations replay into the memview before the partition serves anything.
func OpenPart(sim *iosim.Sim, path string, o PartOptions) (*Part, error) {
	f, err := pagefile.OpenWith(sim, path, pagefile.OpenOptions{Backend: o.Backend})
	if err != nil {
		return nil, err
	}
	tree, err := core.Open(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return newPart(sim, path, tree, o, false)
}

// newPart puts the write path around a built or opened base: the delta
// store beside path (fresh when create, else reopened), the live view, and
// the log. It owns the tree's file from the call on: a failure closes
// everything opened so far.
func newPart(sim *iosim.Sim, path string, tree *core.Tree, o PartOptions, create bool) (*Part, error) {
	openStore := OpenStore
	if create {
		openStore = CreateStore
	}
	store, err := openStore(sim, path)
	if err != nil {
		tree.File().Close()
		return nil, err
	}
	p := &Part{View: NewView(tree, store), sim: sim, path: path}
	if o.WAL && path != "" {
		if err := p.openWAL(o, create); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// openWAL opens the log beside the page file (create: after clearing an
// earlier incarnation's segments), replays what a crash left unflushed into
// the memview, and attaches the log to the write path.
func (p *Part) openWAL(o PartOptions, create bool) error {
	if create {
		if err := wal.RemoveAll(p.path); err != nil {
			return err
		}
	}
	l, ops, err := wal.Open(p.path, wal.Options{Sim: p.sim, GroupWindow: o.WALGroupWindow})
	if err != nil {
		return err
	}
	if _, err := p.AttachWAL(l, ops); err != nil {
		l.Close()
		return err
	}
	p.walLog = l
	return nil
}

// Verify runs the deep structural check of everything the partition stores:
// the base tree's invariants, then every delta level's.
func (p *Part) Verify() error {
	if err := p.Main().Verify(); err != nil {
		return err
	}
	return p.Store().Verify()
}

// Close releases the delta store, then the log (flushing buffered frames
// unless a simulated power cut already struck: the crash error is the
// drill's doing, not a close failure), then the page file, and returns the
// first error.
func (p *Part) Close() error {
	err := p.Store().Close()
	if p.walLog != nil {
		if werr := p.walLog.Close(); werr != nil && err == nil && !iosim.IsCrash(werr) {
			err = werr
		}
	}
	if ferr := p.Main().File().Close(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// foldTo rebuilds the base over everything the partition holds (View.Fold)
// into a fresh page file at path on sim, removing the file on failure.
func (p *Part) foldTo(sim *iosim.Sim, path string, params core.Params) (*core.Tree, error) {
	f, err := createFile(sim, path)
	if err != nil {
		return nil, err
	}
	tree, err := p.View.Fold(f, params)
	if err != nil {
		f.Close()
		if path != "" {
			pagefile.Remove(path)
		}
		return nil, err
	}
	return tree, nil
}

// Fold builds a new partition at path on sim over everything the receiver
// holds — base minus tombstones, plus every delta level and the memview —
// and leaves the receiver open and readable. The new partition starts from
// an empty write path and an empty log: the fold is wholly in its base.
func (p *Part) Fold(sim *iosim.Sim, path string, params core.Params, o PartOptions) (*Part, error) {
	tree, err := p.foldTo(sim, path, params)
	if err != nil {
		return nil, err
	}
	return newPart(sim, path, tree, o, true)
}

// Rebuild folds the partition in place: the new base is staged in a sibling
// file and renamed over the old one, the delta store restarts empty, and
// the log is drained and truncated — every logged operation is in the new
// base, and the fresh store's applied-LSN watermark restarts at zero, so a
// stale segment would double-apply on recovery. Callers serialize Rebuild
// against ingest.
func (p *Part) Rebuild(params core.Params) error {
	staged := p.path
	if staged != "" {
		staged += ".compact"
	}
	tree, err := p.foldTo(p.sim, staged, params)
	if err != nil {
		return err
	}
	if staged != "" {
		if err := pagefile.Rename(staged, p.path); err != nil {
			tree.File().Close()
			pagefile.Remove(staged)
			return fmt.Errorf("lsm: swapping rebuilt partition: %w", err)
		}
	}
	// CreateStore clears the old store's files from disk; closing the old
	// store then releases the handles it still holds on them. A stream still
	// reading the old base or levels keeps them open until it closes.
	np, err := newPart(p.sim, p.path, tree, PartOptions{}, true)
	if err != nil {
		return err
	}
	old := p.View
	p.View = np.View
	old.Main().File().Close()
	old.Store().Close()
	if p.walLog == nil {
		return nil
	}
	boundary := p.walLog.LastLSN()
	if err := p.walLog.Commit(boundary); err != nil {
		return fmt.Errorf("lsm: draining wal: %w", err)
	}
	if err := p.walLog.TruncateThrough(boundary); err != nil {
		return fmt.Errorf("lsm: truncating wal: %w", err)
	}
	_, err = p.AttachWAL(p.walLog, nil)
	return err
}
