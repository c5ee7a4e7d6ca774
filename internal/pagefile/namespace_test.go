package pagefile

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestLoadJSONRecoversFromTornTemp: a save cut before its rename leaves a
// torn temp file beside the installed manifest. The load reads the installed
// one, removes the temp, and reports a manifest that was never installed as
// fs.ErrNotExist.
func TestLoadJSONRecoversFromTornTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	type manifest struct{ Gens []uint64 }
	var got manifest
	if err := LoadJSON(path, &got); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("loading a manifest never saved: %v, want fs.ErrNotExist", err)
	}
	if err := SaveJSON(path, manifest{Gens: []uint64{3, 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte(`{"Gens": [9`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadJSON(path, &got); err != nil || !slices.Equal(got.Gens, []uint64{3, 1}) {
		t.Fatalf("load beside a torn temp = %+v, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the torn temp survived the load (err=%v)", err)
	}
	if err := os.WriteFile(path, []byte(`{"Gens": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadJSON(path, &got); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("loading a corrupt manifest: %v, want a decode error", err)
	}
}

// TestRecoveryListsOnlyGenerations: the lister returns, in numeric order,
// exactly the files GenPath names, including those past six digits, never
// a directory of such a name, and nothing for a directory that does not
// exist.
func TestRecoveryListsOnlyGenerations(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "view.sv.d")
	for _, gen := range []uint64{12, 1000000, 0, 999999} {
		if err := os.WriteFile(GenPath(prefix, gen), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"view.sv.d7", "view.sv.d000002.bak", "view.sv.d2-backup",
		"view.sv.d+00003", "view.sv.d0000004", "view.sv.lsm", "other.sv.d000005"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(GenPath(prefix, 5), 0o755); err != nil {
		t.Fatal(err)
	}
	gens, err := Generations(prefix)
	if want := []uint64{0, 12, 999999, 1000000}; err != nil || !slices.Equal(gens, want) {
		t.Fatalf("Generations = %v, %v; want %v", gens, err, want)
	}
	if gens, err := Generations(filepath.Join(dir, "gone", "view.sv.d")); err != nil || gens != nil {
		t.Fatalf("Generations in a missing directory = %v, %v", gens, err)
	}
	if err := Remove(GenPath(prefix, 12)); err != nil {
		t.Fatal(err)
	}
	if err := Remove(GenPath(prefix, 12)); err != nil {
		t.Fatalf("removing what is already gone: %v", err)
	}
}
