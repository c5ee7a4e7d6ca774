package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sampleview/internal/analysis"
)

// TestLintRun drives svlint in process over a fixture module: clean, then with
// a global math/rand draw seeded into it, then with a pattern naming no
// directory, and -list.
func TestLintRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixture\n\ngo 1.22\n")
	write("a/a.go", "package a\n\nimport \"math/rand/v2\"\n\nfunc Draw(r *rand.Rand) int { return r.IntN(6) }\n")
	t.Chdir(dir)

	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 || out.Len() != 0 {
		t.Fatalf("clean tree: exit %d, stdout %q, stderr %q", code, out.String(), errb.String())
	}

	write("b/b.go", "package b\n\nimport \"math/rand/v2\"\n\nfunc Draw() int {\n\treturn rand.IntN(6)\n}\n")
	out.Reset()
	errb.Reset()
	code := run([]string{"./..."}, &out, &errb)
	if pos := "b/b.go:6:9: noglobalrand:"; code != 1 || !strings.HasPrefix(out.String(), pos) || strings.Count(out.String(), "\n") != 1 {
		t.Errorf("seeded violation: exit %d, stdout %q; want 1 and one line starting %q", code, out.String(), pos)
	}
	if !strings.Contains(errb.String(), "svlint: 1 violation(s)") {
		t.Errorf("seeded violation: stderr %q", errb.String())
	}

	errb.Reset()
	if code := run([]string{"./missing/..."}, &out, &errb); code != 2 || !strings.HasPrefix(errb.String(), "svlint: ") {
		t.Errorf("missing directory: exit %d, stderr %q; want 2 and a diagnosis", code, errb.String())
	}

	out.Reset()
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	all := analysis.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines for %d analyzers:\n%s", len(lines), len(all), out.String())
	}
	for i, a := range all {
		if !strings.HasPrefix(lines[i], a.Name+" ") || !strings.HasSuffix(lines[i], a.Doc) {
			t.Errorf("-list line %d = %q, want %s and its doc", i, lines[i], a.Name)
		}
	}
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
