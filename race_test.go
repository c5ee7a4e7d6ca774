//go:build race

package sampleview

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
