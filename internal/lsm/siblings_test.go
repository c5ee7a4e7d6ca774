package lsm

import (
	"os"
	"path/filepath"
	"testing"

	"sampleview/internal/iosim"
	"sampleview/internal/record"
	"sampleview/internal/wal"
)

// TestRecoveryIgnoresStraySiblings: the log's segments and the store's
// delta files are found by listing the view's directory, and a neighbour
// whose name only starts like one (a backup copy, a hand-named file) is not
// one of them. A name counts only if its suffix round-trips through the
// six-digit generation format.
func TestRecoveryIgnoresStraySiblings(t *testing.T) {
	newSim := func() *iosim.Sim { return iosim.New(iosim.DefaultModel()) }
	logOps := func(t *testing.T, l *wal.Log, from, to uint64) {
		t.Helper()
		for seq := from; seq <= to; seq++ {
			if _, err := l.AppendInsert(record.Record{Key: int64(seq), Seq: seq}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Commit(l.LastLSN()); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func(t *testing.T, prefix string) (*wal.Log, []wal.Op) {
		t.Helper()
		l, ops, err := wal.Open(prefix, wal.Options{Sim: newSim()})
		if err != nil {
			t.Fatalf("reopening the log: %v", err)
		}
		return l, ops
	}
	write := func(t *testing.T, path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("wal000000.bak", func(t *testing.T) {
		prefix := filepath.Join(t.TempDir(), "view.sv")
		l, _ := reopen(t, prefix)
		logOps(t, l, 1, 5)
		l.Close()
		seg, err := os.ReadFile(prefix + ".wal000000")
		if err != nil {
			t.Fatal(err)
		}
		write(t, prefix+".wal000000.bak", seg)

		l, ops := reopen(t, prefix)
		if len(ops) != 5 {
			t.Fatalf("replayed %d ops for 5 written", len(ops))
		}
		// The live segment holds LSNs 1..8; truncating through 5 must leave
		// it alone, since 6..8 are acked and nowhere else.
		logOps(t, l, 6, 8)
		if err := l.TruncateThrough(5); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, ops = reopen(t, prefix)
		defer l.Close()
		if len(ops) != 8 || ops[7].LSN != 8 {
			t.Fatalf("after truncating through 5, reopen replayed %d ops, want LSNs 1..8", len(ops))
		}
	})

	t.Run("wal7", func(t *testing.T) {
		prefix := filepath.Join(t.TempDir(), "view.sv")
		write(t, prefix+".wal7", []byte("not a segment"))
		l, _ := reopen(t, prefix)
		logOps(t, l, 1, 3)
		l.Close()
		l, ops := reopen(t, prefix)
		defer l.Close()
		if len(ops) != 3 {
			t.Fatalf("replayed %d ops for 3 written", len(ops))
		}
	})

	t.Run("d2-backup", func(t *testing.T) {
		prefix := filepath.Join(t.TempDir(), "view.sv")
		write(t, prefix+".d000002", nil) // an orphaned level: CreateStore clears it
		write(t, prefix+".d2-backup", []byte("keep me"))
		s, err := CreateStore(newSim(), prefix)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := os.Stat(prefix + ".d000002"); !os.IsNotExist(err) {
			t.Fatalf("CreateStore left the orphaned level behind (err=%v)", err)
		}
		if _, err := os.Stat(prefix + ".d2-backup"); err != nil {
			t.Fatalf("CreateStore removed a neighbour it never wrote: %v", err)
		}
	})
}
