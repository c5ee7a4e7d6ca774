package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk format (version 2)
//
// Version 2 protects every page with an in-page checksum header so that
// bit rot and misdirected I/O are detected at read time instead of being
// returned to samplers as silently wrong records. A physical page is:
//
//	[0:4)  CRC32-C (Castagnoli) over bytes [4:pageSize) of the frame
//	[4:8)  physical page number, little-endian uint32
//	[8:)   payload
//
// The page number inside the checksummed region makes a page written to the
// wrong offset (or a read served from the wrong offset) fail verification
// even when the frame itself is internally consistent. Callers never see
// the header: File.PageSize reports the payload size and every layer above
// derives its per-page capacities from it, so the payload shrink is
// transparent.
//
// OS-backed files additionally carry a superblock at physical page 0 whose
// payload starts with the magic "SVPGF002" followed by the physical page
// size; logical page i lives at physical page i+1. A file without the
// superblock magic (a pre-checksum version-1 file, or not a page file at
// all) is refused at open with a *FormatError: there is nothing to verify
// its pages against. In-memory files need no superblock, since they never
// outlive the process that created them.
//
// A layer that wants to read less than a page keeps, outside the page, the
// CRC32-C of the payload prefix it will ask for (UpdateCRC at write time)
// and reads with ReadPrefix, or the CRC32-C of each block of the spans it
// will ask for, seeded with the page number, and reads with ReadSpan; see
// there for what each does and does not verify.

// frameHdrSize is the per-page header: CRC32-C plus the page number.
const frameHdrSize = 8

// superMagic identifies a version-2 OS-backed page file.
const superMagic = "SVPGF002"

// castagnoli is the CRC32-C polynomial table (same polynomial used by
// iSCSI, btrfs and ext4 metadata checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FormatError reports a file OpenWith refused because it does not start
// with the version-2 superblock.
type FormatError struct{}

func (*FormatError) Error() string {
	return "pagefile: no " + superMagic + " superblock (a pre-checksum v1 file, or not a page file): rebuild it"
}

// UpdateCRC extends crc — 0 to start — with the CRC32-C of p: the checksum
// ReadPrefix verifies a payload prefix against.
func UpdateCRC(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// CorruptPageError reports a page whose contents failed checksum
// verification (or carried the wrong page number) even after the reread
// budget. Page is the logical page index.
type CorruptPageError struct {
	Page int64
	// Got is the checksum computed over the bytes actually read; Want is the
	// checksum recorded in the page header when it was written.
	Got, Want uint32
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("pagefile: corrupt page %d: checksum %08x, want %08x", e.Page, e.Got, e.Want)
}

// DeadPageError reports a page that stayed unreadable for every attempt of
// the retry budget: a bad sector. Page is the logical page index.
type DeadPageError struct {
	Page     int64
	Attempts int
}

func (e *DeadPageError) Error() string {
	return fmt.Sprintf("pagefile: dead page %d: unreadable after %d attempts", e.Page, e.Attempts)
}

// TransientError reports a read that failed transiently on every attempt of
// the retry budget. Unlike a dead page, retrying later may succeed; callers
// with their own retry policy (e.g. the serving layer) are expected to.
type TransientError struct {
	Page     int64
	Attempts int
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("pagefile: transient read failure on page %d after %d attempts", e.Page, e.Attempts)
}

// IsTransient reports whether err is (or wraps) a transient read failure:
// one that a later retry of the same operation may clear.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// IsCorrupt reports whether err is (or wraps) a checksum failure.
func IsCorrupt(err error) bool {
	var ce *CorruptPageError
	return errors.As(err, &ce)
}

// IsDead reports whether err is (or wraps) a dead-page failure: a bad
// sector that no retry will recover.
func IsDead(err error) bool {
	var de *DeadPageError
	return errors.As(err, &de)
}

// encodeFrame writes the v2 header for physical page phys into frame
// (header + payload already in place past the header).
func encodeFrame(frame []byte, phys int64) {
	binary.LittleEndian.PutUint32(frame[4:8], uint32(phys))
	binary.LittleEndian.PutUint32(frame[0:4], crc32.Checksum(frame[4:], castagnoli))
}

// verifyFrame checks frame's checksum and page number against physical page
// phys, returning the computed and stored checksums.
func verifyFrame(frame []byte, phys int64) (got, want uint32, ok bool) {
	want = binary.LittleEndian.Uint32(frame[0:4])
	got = crc32.Checksum(frame[4:], castagnoli)
	if got != want {
		return got, want, false
	}
	if binary.LittleEndian.Uint32(frame[4:8]) != uint32(phys) {
		return got, want, false
	}
	return got, want, true
}

// flipBit flips bit index (reduced modulo the frame length) in frame,
// simulating bit rot in the stored image.
func flipBit(frame []byte, bit int64) {
	bit %= int64(len(frame)) * 8
	frame[bit/8] ^= 1 << (bit % 8)
}

// readSuper checks that physical page 0 of b is a valid v2 superblock for
// the given physical page size; a file that is empty or does not carry the
// magic is a *FormatError.
func readSuper(b Backend, physSize int) error {
	if b.NumPages() == 0 {
		return &FormatError{}
	}
	frame := make([]byte, physSize)
	if err := b.ReadPage(0, 0, frame); err != nil {
		return err
	}
	if string(frame[frameHdrSize:frameHdrSize+len(superMagic)]) != superMagic {
		return &FormatError{}
	}
	if _, _, ok := verifyFrame(frame, 0); !ok {
		return fmt.Errorf("pagefile: superblock checksum mismatch")
	}
	stored := int(binary.LittleEndian.Uint32(frame[frameHdrSize+len(superMagic):]))
	if stored != physSize {
		return fmt.Errorf("pagefile: file has page size %d, disk model has %d", stored, physSize)
	}
	return nil
}

// writeSuper writes the v2 superblock as physical page 0. Superblock I/O is
// not charged to the simulated clock: it is format metadata touched once
// per open, not part of any algorithm's access pattern.
func writeSuper(b Backend, physSize int) error {
	frame := make([]byte, physSize)
	copy(frame[frameHdrSize:], superMagic)
	binary.LittleEndian.PutUint32(frame[frameHdrSize+len(superMagic):], uint32(physSize))
	encodeFrame(frame, 0)
	return b.WritePage(0, frame)
}

// CheckPage verifies the stored checksum of logical page i directly — no
// fault injection, no retries — charging one read. It returns nil for a
// healthy page and a *CorruptPageError for a checksum or page-number
// mismatch. This is the primitive behind fsck-style offline verification.
func (f *File) CheckPage(i int64) error {
	n := f.NumPages()
	if i < 0 || i >= n {
		return fmt.Errorf("%w: check page %d of %d", ErrPageOutOfRange, i, n)
	}
	phys := i + f.physOff
	f.clock.ReadPage(f.id, phys)
	frame := f.frames.get()
	defer f.frames.put(frame)
	if err := f.backend.ReadPage(phys, 0, frame); err != nil {
		return err
	}
	if got, want, ok := verifyFrame(frame, phys); !ok {
		return &CorruptPageError{Page: i, Got: got, Want: want}
	}
	return nil
}

// CorruptStored flips one bit of the stored image of logical page i,
// bypassing the checksum machinery — it damages the page exactly the way
// bit rot would, for tests and chaos tooling. Neither access is charged.
func (f *File) CorruptStored(i int64, bit int64) error {
	n := f.NumPages()
	if i < 0 || i >= n {
		return fmt.Errorf("%w: corrupt page %d of %d", ErrPageOutOfRange, i, n)
	}
	phys := i + f.physOff
	frame := make([]byte, f.pageSize+frameHdrSize)
	if err := f.backend.ReadPage(phys, 0, frame); err != nil {
		return err
	}
	if bit < 0 {
		bit = -bit
	}
	flipBit(frame, bit)
	return f.backend.WritePage(phys, frame)
}

// Quiet reports whether the fault plan of the file's clock can touch no
// read attempt of logical pages [from, to) (iosim.FaultPlan.Quiet).
func (f *File) Quiet(from, to int64) bool {
	p := f.clock.FaultPlan()
	for i := from; i < to && p.Enabled(); i++ {
		if !p.Quiet(f.id, i+f.physOff) {
			return false
		}
	}
	return true
}
