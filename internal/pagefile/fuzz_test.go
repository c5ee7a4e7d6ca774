package pagefile

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sampleview/internal/iosim"
)

// fuzzSim builds a small-page disk so each fuzz iteration is cheap.
func fuzzSim() *iosim.Sim {
	return iosim.New(iosim.Model{
		RandomRead:      time.Millisecond,
		SequentialRead:  time.Millisecond,
		RandomWrite:     time.Millisecond,
		SequentialWrite: time.Millisecond,
		PageSize:        256,
	})
}

// FuzzPageChecksum drives the v2 page codec with arbitrary payloads and
// arbitrary single-bit damage: an undamaged page must round-trip exactly,
// and any one-bit flip anywhere in the stored frame — payload, page number,
// or the checksum field itself — must surface as a CorruptPageError, never
// as silently wrong bytes. A prefix read of the same page must reject
// exactly the flips that land in the bytes it consumes or in the
// page-number field, and return the exact prefix after any other.
func FuzzPageChecksum(f *testing.F) {
	f.Add([]byte("hello pages"), uint32(0), false, uint16(11))
	f.Add([]byte{}, uint32(77), true, uint16(0))
	f.Add(bytes.Repeat([]byte{0xff}, 300), uint32(2047), true, uint16(240))
	f.Add([]byte("prefix"), uint32(40), true, uint16(3))
	f.Fuzz(func(t *testing.T, payload []byte, bit uint32, damage bool, prefix uint16) {
		sim := fuzzSim()
		pf := NewMem(sim)
		page := make([]byte, pf.PageSize())
		copy(page, payload)
		if _, err := pf.Append(page); err != nil {
			t.Fatal(err)
		}
		n := int(prefix) % (pf.PageSize() - frameHdrSize + 1)
		want := UpdateCRC(0, page[:n])
		checkPrefix := func(wantCorrupt bool) {
			t.Helper()
			got, err := pf.ReadPrefix(0, make([]byte, pf.PageSize()), n, want)
			switch {
			case wantCorrupt && !IsCorrupt(err):
				t.Fatalf("ReadPrefix(%d) after bit flip %d = %v, want CorruptPageError", n, bit, err)
			case !wantCorrupt && (err != nil || !bytes.Equal(got, page[:n])):
				t.Fatalf("ReadPrefix(%d) with bit flip %d outside it: err %v, prefix intact %v", n, bit, err, bytes.Equal(got, page[:n]))
			}
		}

		if damage {
			if err := pf.CorruptStored(0, int64(bit)); err != nil {
				t.Fatal(err)
			}
			var cpe *CorruptPageError
			if err := pf.CheckPage(0); !errors.As(err, &cpe) {
				t.Fatalf("CheckPage after bit flip %d = %v, want CorruptPageError", bit, err)
			}
			got := make([]byte, pf.PageSize())
			if err := pf.Read(0, got); !errors.As(err, &cpe) {
				t.Fatalf("Read after bit flip %d = %v, want CorruptPageError", bit, err)
			}
			at := int(bit) % (8 * (pf.PageSize() + frameHdrSize))
			checkPrefix(n > 0 && at >= 32 && at < 8*(frameHdrSize+n))
			// Flipping the same bit back must heal the page.
			if err := pf.CorruptStored(0, int64(bit)); err != nil {
				t.Fatal(err)
			}
		}

		got := make([]byte, pf.PageSize())
		if err := pf.Read(0, got); err != nil {
			t.Fatalf("healthy page read: %v", err)
		}
		if !bytes.Equal(got, page) {
			t.Fatal("payload did not round-trip")
		}
		if err := pf.CheckPage(0); err != nil {
			t.Fatalf("CheckPage on healthy page: %v", err)
		}
		checkPrefix(false)
	})
}
