package core

import (
	"fmt"
	"strings"

	"sampleview/internal/pagefile"
)

// FormatError reports a tree file written under a format version this build
// does not read. There is one reader: an older file is rebuilt, not
// dual-read.
type FormatError struct {
	Found, Wanted int
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("core: tree format version %d, this build reads version %d: rebuild the view", e.Found, e.Wanted)
}

// DegradedError reports that a stream permanently lost a leaf to a hard
// storage failure (a dead page or detected corruption). The stream stays
// serviceable — subsequent stabs read the surviving leaves — but the
// records the lost leaf would have contributed are gone, so the uniformity
// guarantee no longer covers the affected regions. Callers inspect Leaf and
// Sections to decide whether the running sample is still trustworthy.
type DegradedError struct {
	// Leaf is the ordinal of the lost leaf.
	Leaf int64
	// Sections lists the 1-based section numbers of the lost leaf whose
	// regions overlap the stream's query: the contributions actually lost.
	Sections []int
	// Err is the underlying storage error (*pagefile.DeadPageError or
	// *pagefile.CorruptPageError).
	Err error
}

func (e *DegradedError) Error() string {
	secs := make([]string, len(e.Sections))
	for i, s := range e.Sections {
		secs[i] = fmt.Sprintf("%d", s)
	}
	return fmt.Sprintf("core: stream degraded: leaf %d lost (sections %s): %v",
		e.Leaf, strings.Join(secs, ","), e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// retriable reports whether a leaf-read failure may clear on retry: the
// stab is kept pending and the same leaf is re-read on the next call.
// Failures the storage layer types as permanent degrade the stream instead.
func retriable(err error) bool { return pagefile.IsTransient(err) }
