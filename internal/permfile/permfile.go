// Package permfile implements the randomly permuted file, the first of the
// paper's baseline sample-view organizations (Section II-A).
//
// Construction assigns every record a random sort key and runs a two-phase
// multi-way merge sort on it, exactly as the paper describes; the random
// keys are stripped as the permuted records are written out. Sampling from
// a range predicate scans the file front to back with fast sequential I/O
// and returns the records that satisfy the predicate: the prefix returned
// at any moment is a uniform random sample of the matching records, but the
// useful fraction of each page equals the predicate's selectivity.
package permfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"

	"sampleview/internal/extsort"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

const (
	magic   = uint64(0x53565045524d3131) // "SVPERM11"
	tagSize = 8
)

// File is a randomly permuted file of records.
type File struct {
	items *pagefile.ItemFile
}

// Build permutes the records of src into dst, which must be an empty page
// file, using memPages pages of sort memory and the given seed.
func Build(dst *pagefile.File, src *pagefile.ItemFile, memPages int, seed uint64) (*File, error) {
	if dst.NumPages() != 0 {
		return nil, fmt.Errorf("permfile: destination file is not empty")
	}
	if src.ItemSize() != record.Size {
		return nil, fmt.Errorf("permfile: source item size %d is not a record", src.ItemSize())
	}
	sim := dst.Sim()

	// Pass 1: attach a random 8-byte sort key to every record.
	tagged := pagefile.NewItemFile(pagefile.NewMem(sim), tagSize+record.Size)
	tw := tagged.NewWriter()
	rng := rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5))
	buf := make([]byte, tagSize+record.Size)
	r := src.NewReader()
	for {
		item, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(buf[:tagSize], rng.Uint64())
		copy(buf[tagSize:], item)
		if err := tw.Write(buf); err != nil {
			return nil, err
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}

	// Pass 2: external sort by the random key.
	sorted := pagefile.NewItemFile(pagefile.NewMem(sim), tagSize+record.Size)
	defer sorted.File().Close()
	err := extsort.Sort(sorted, tagged, extsort.Key{}, memPages, 1)
	tagged.File().Close()
	if err != nil {
		return nil, fmt.Errorf("permfile: permuting: %w", err)
	}

	// Final pass: strip the sort keys while writing the permuted records to
	// their destination, behind a one-page header.
	if err := writeHeader(dst, 0); err != nil {
		return nil, err
	}
	items := pagefile.NewItemFile(dst, record.Size)
	w := items.NewWriter()
	sr := sorted.NewReader()
	for {
		item, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := w.Write(item[tagSize:]); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := writeHeader(dst, items.Count()); err != nil {
		return nil, err
	}
	return &File{items: items}, nil
}

// Open opens a permuted file previously written by Build.
func Open(f *pagefile.File) (*File, error) {
	if f.NumPages() == 0 {
		return nil, fmt.Errorf("permfile: empty file")
	}
	page := make([]byte, f.PageSize())
	if err := f.Read(0, page); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(page[0:8]) != magic {
		return nil, fmt.Errorf("permfile: bad magic")
	}
	count := int64(binary.LittleEndian.Uint64(page[8:16]))
	items, err := pagefile.OpenItemFile(f, record.Size, 1, count)
	if err != nil {
		return nil, fmt.Errorf("permfile: %w", err)
	}
	return &File{items: items}, nil
}

func writeHeader(f *pagefile.File, count int64) error {
	page := make([]byte, f.PageSize())
	binary.LittleEndian.PutUint64(page[0:8], magic)
	binary.LittleEndian.PutUint64(page[8:16], uint64(count))
	if f.NumPages() == 0 {
		_, err := f.Append(page)
		return err
	}
	return f.Write(0, page)
}

// Count returns the number of records in the file.
func (p *File) Count() int64 { return p.items.Count() }

// DataPages returns the number of pages occupied by records.
func (p *File) DataPages() int64 { return p.items.NumPages() }

// OnClock returns a view of the file whose scans charge their I/O to the
// given per-stream clock instead of directly to the shared simulated disk.
// Views share the underlying storage, so concurrent scans on separate
// clocks are safe.
func (p *File) OnClock(c *iosim.Clock) *File {
	return &File{items: p.items.OnClock(c)}
}

// Scanner streams a uniform random sample of the records matching a
// predicate by scanning the permuted file in storage order.
type Scanner struct {
	q       record.Box
	r       *pagefile.ItemReader
	total   int64
	scanned int64
}

// Query returns a scanner over the records of p that match q. The scan
// reads one page per step so that a matching record is surfaced as soon
// as its own page has been transferred.
func (p *File) Query(q record.Box) *Scanner {
	return &Scanner{q: q, r: p.items.NewReaderBurst(0, 1), total: p.items.Count()}
}

// Scanned returns how many records have been examined so far.
func (s *Scanner) Scanned() int64 { return s.scanned }

// Next returns the next matching record, or io.EOF once the whole file has
// been scanned.
func (s *Scanner) Next() (record.Record, error) {
	var rec record.Record
	for s.scanned < s.total {
		item, err := s.r.Next()
		if err != nil {
			return rec, err
		}
		s.scanned++
		rec.Unmarshal(item)
		if s.q.ContainsRecord(&rec) {
			return rec, nil
		}
	}
	return rec, io.EOF
}
