package memview

import (
	"sync"
	"testing"

	"sampleview/internal/record"
)

func rec(seq uint64, key int64) record.Record {
	return record.Record{Key: key, Amount: int64(seq), Seq: seq}
}

func TestInsertDeleteAnnihilates(t *testing.T) {
	b := New()
	for i := uint64(0); i < 10; i++ {
		if err := b.Insert(rec(i, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Delete(rec(3, 3)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 9 || b.Tombstones() != 0 {
		t.Fatalf("in-buffer delete kept a tombstone: len=%d tombs=%d", b.Len(), b.Tombstones())
	}
	// Deleting something never buffered leaves a tombstone.
	if err := b.Delete(rec(100, 100)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 9 || b.Tombstones() != 1 {
		t.Fatalf("delete of older record: len=%d tombs=%d", b.Len(), b.Tombstones())
	}
}

func TestSnapshotSortedAndImmutable(t *testing.T) {
	b := New()
	for _, seq := range []uint64{5, 1, 9, 3} {
		b.Insert(rec(seq, int64(seq)))
	}
	b.Delete(rec(40, 40))
	b.Delete(rec(20, 20))
	s := b.Snapshot()
	for i := 1; i < len(s.Inserts); i++ {
		if s.Inserts[i-1].Seq >= s.Inserts[i].Seq {
			t.Fatal("snapshot inserts not sorted by Seq")
		}
	}
	for i := 1; i < len(s.Tombs); i++ {
		if s.Tombs[i-1].Seq >= s.Tombs[i].Seq {
			t.Fatal("snapshot tombstones not sorted by Seq")
		}
	}
	// The buffer keeps filling; the snapshot must not change.
	b.Insert(rec(7, 7))
	if len(s.Inserts) != 4 {
		t.Fatalf("snapshot changed after insert: %d inserts", len(s.Inserts))
	}
	if !s.Deleted(20) || !s.Deleted(40) || s.Deleted(5) {
		t.Fatal("snapshot Deleted() wrong")
	}
}

func TestSealFreezes(t *testing.T) {
	b := New()
	b.Insert(rec(1, 1))
	s := b.Seal()
	if len(s.Inserts) != 1 {
		t.Fatalf("seal snapshot has %d inserts", len(s.Inserts))
	}
	if err := b.Insert(rec(2, 2)); err != ErrSealed {
		t.Fatalf("insert after seal: %v", err)
	}
	if err := b.Delete(rec(1, 1)); err != ErrSealed {
		t.Fatalf("delete after seal: %v", err)
	}
}

func TestMatchingInserts(t *testing.T) {
	b := New()
	for i := int64(0); i < 100; i++ {
		b.Insert(record.Record{Key: i, Seq: uint64(i)})
	}
	got := b.Snapshot().MatchingInserts(nil, record.Box1D(10, 19))
	if len(got) != 10 {
		t.Fatalf("matched %d, want 10", len(got))
	}
	for _, r := range got {
		if r.Key < 10 || r.Key > 19 {
			t.Fatalf("record key %d outside predicate", r.Key)
		}
	}
}

// TestSnapshotSharedUntilNextWrite: between two writes every opener gets the
// same snapshot (no copy, no sort), a write makes the next one fresh, and
// under -race writers and openers running together never touch a snapshot
// an opener holds.
func TestSnapshotSharedUntilNextWrite(t *testing.T) {
	b := New()
	b.Insert(rec(1, 1))
	b.Delete(rec(50, 50))
	s1, s2 := b.Snapshot(), b.Snapshot()
	if &s1.Inserts[0] != &s2.Inserts[0] || &s1.Tombs[0] != &s2.Tombs[0] {
		t.Fatal("two snapshots with no write between them do not share storage")
	}
	b.Insert(rec(2, 2))
	if s3 := b.Snapshot(); len(s3.Inserts) != 2 || len(s1.Inserts) != 1 {
		t.Fatalf("snapshot after a write holds %d inserts, the one before it now %d", len(s3.Inserts), len(s1.Inserts))
	}

	var wg sync.WaitGroup
	for w := uint64(0); w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 500; i++ {
				b.Insert(rec(100+w*1000+i, int64(i)))
				if i%3 == 0 {
					b.Delete(rec(100+w*1000+i/2, 0))
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := b.Snapshot()
				for j := 1; j < len(s.Inserts); j++ {
					if s.Inserts[j-1].Seq >= s.Inserts[j].Seq {
						t.Error("snapshot inserts not sorted by Seq")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if s := b.Seal(); len(s.Inserts) != b.Len() || len(s.Tombs) != b.Tombstones() {
		t.Fatalf("sealed snapshot holds %d/%d, buffer %d/%d", len(s.Inserts), len(s.Tombs), b.Len(), b.Tombstones())
	}
}
