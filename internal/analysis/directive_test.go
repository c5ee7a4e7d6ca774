package analysis

import (
	"strings"
	"testing"
)

// TestParseDirective pins the directive grammar, including the parse errors
// the fixture cannot co-locate want markers with.
func TestParseDirective(t *testing.T) {
	cases := []struct {
		text      string
		analyzers []string
		reason    string
		errSubstr string // "" means no error; "skip" means (nil, nil)
	}{
		{"// ordinary comment", nil, "", "skip"},
		{"//lint:ignoreX not a directive", nil, "", "skip"},
		{"//lint:ignore nodirectio the reason", []string{"nodirectio"}, "the reason", ""},
		{"//lint:ignore clockcharge,lockorder shared excuse", []string{"clockcharge", "lockorder"}, "shared excuse", ""},
		{"//lint:ignore nodirectio  padded   reason", []string{"nodirectio"}, "padded reason", ""},
		{"//lint:ignore", nil, "", "missing an analyzer name"},
		{"//lint:ignore nodirectio", nil, "", "missing the mandatory reason"},
		{"//lint:ignore NoDirectIO caps", nil, "", "malformed analyzer name"},
		{"//lint:ignore nodirectio, trailing comma", nil, "", "malformed analyzer name"},
		{"//lint:ignore a,,b double comma", nil, "", "malformed analyzer name"},
	}
	for _, c := range cases {
		d, err := parseDirective(c.text)
		switch {
		case c.errSubstr == "skip":
			if d != nil || err != nil {
				t.Errorf("parseDirective(%q) = %v, %v; want nil, nil", c.text, d, err)
			}
		case c.errSubstr != "":
			if err == nil || !strings.Contains(err.Error(), c.errSubstr) {
				t.Errorf("parseDirective(%q) error = %v; want containing %q", c.text, err, c.errSubstr)
			}
		default:
			if err != nil || d == nil {
				t.Fatalf("parseDirective(%q) = %v, %v; want directive", c.text, d, err)
			}
			if len(d.Analyzers) != len(c.analyzers) {
				t.Errorf("parseDirective(%q) analyzers = %v; want %v", c.text, d.Analyzers, c.analyzers)
			} else {
				for i := range d.Analyzers {
					if d.Analyzers[i] != c.analyzers[i] {
						t.Errorf("parseDirective(%q) analyzers = %v; want %v", c.text, d.Analyzers, c.analyzers)
						break
					}
				}
			}
			if d.Reason != c.reason {
				t.Errorf("parseDirective(%q) reason = %q; want %q", c.text, d.Reason, c.reason)
			}
		}
	}
}

// TestNames pins that every registered analyzer name is a valid directive
// target, so a lint:ignore can always spell the analyzer it means.
func TestNames(t *testing.T) {
	known := Names()
	if !known["directive"] {
		t.Error(`Names() lacks "directive"`)
	}
	for name := range known {
		if !isIdent(name) {
			t.Errorf("analyzer name %q is not a valid directive target", name)
		}
	}
	if len(known) != len(All())+1 {
		t.Errorf("Names() has %d entries, want %d", len(known), len(All())+1)
	}
}

// FuzzDirective throws arbitrary comment text at the parser and checks its
// invariants: a returned directive always has at least one well-formed
// analyzer name and a non-empty reason, and never coexists with an error.
func FuzzDirective(f *testing.F) {
	f.Add("// ordinary comment")
	f.Add("//lint:ignore nodirectio the reason")
	f.Add("//lint:ignore clockcharge,lockorder shared excuse")
	f.Add("//lint:ignore")
	f.Add("//lint:ignore nodirectio")
	f.Add("//lint:ignore NoDirectIO caps")
	f.Add("//lint:ignore a,,b x")
	f.Add("//lint:ignore\t nodirectio\ttabbed reason")
	f.Fuzz(func(t *testing.T, text string) {
		d, err := parseDirective(text)
		if d != nil && err != nil {
			t.Fatalf("parseDirective(%q) returned both a directive and an error", text)
		}
		if d == nil {
			return
		}
		if len(d.Analyzers) == 0 {
			t.Fatalf("parseDirective(%q) returned a directive without analyzers", text)
		}
		for _, n := range d.Analyzers {
			if !isIdent(n) {
				t.Fatalf("parseDirective(%q) accepted malformed analyzer name %q", text, n)
			}
		}
		if d.Reason == "" {
			t.Fatalf("parseDirective(%q) returned a directive without a reason", text)
		}
	})
}
