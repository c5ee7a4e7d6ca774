package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFigureTSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(strings.Fields("-fig 11 -n 20000 -queries 1 -grid 8 -par 2"), &out, &errb); code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 3+8 {
		t.Fatalf("want a 3-line header and 8 grid rows, got:\n%s", out.String())
	}
	if !strings.HasPrefix(lines[0], "# Figure 11: ") || !strings.HasPrefix(lines[1], "# x: ") {
		t.Errorf("header:\n%s\n%s", lines[0], lines[1])
	}
	cols := strings.Split(lines[2], "\t")
	if want := []string{"x", "ACE Tree", "B+ Tree", "Randomly permuted file", "ACE Tree (system)"}; strings.Join(cols, "|") != strings.Join(want, "|") {
		t.Errorf("columns %q, want %q", cols, want)
	}
	for _, row := range lines[3:] {
		if n := len(strings.Split(row, "\t")); n != len(cols) {
			t.Errorf("row %q has %d columns, want %d", row, n, len(cols))
		}
	}

	errb.Reset()
	if code := run([]string{"-fig", "99"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), `svbench: unknown figure "99"`) {
		t.Errorf("unknown figure: exit %d, stderr %q", code, errb.String())
	}
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
}
