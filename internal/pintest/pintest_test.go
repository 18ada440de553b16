package pintest

import (
	"strings"
	"testing"
)

// Two well-formed hashes, built so that no digest literal appears here.
var (
	sumA = strings.Repeat("0", 64)
	sumB = strings.Repeat("0123456789abcdef", 4)
)

func TestParse(t *testing.T) {
	pins, err := parse("# header\n\nx/a " + sumA + "\n  x/b\t" + sumB + "  \n# trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) != 2 || pins["x/a"] != sumA || pins["x/b"] != sumB {
		t.Fatalf("parse = %v", pins)
	}
	for _, tc := range []struct{ name, text, err string }{
		{"duplicate name", "x/a " + sumA + "\nx/a " + sumB, "line 2: x/a is pinned twice"},
		{"short hash", "x/a " + sumA[1:], "line 1: x/a: "},
		{"uppercase hash", "x/a " + strings.ToUpper(sumB), "not 64 lowercase hex digits"},
		{"non-hex hash", "x/a " + strings.Replace(sumA, "0", "g", 1), "not 64 lowercase hex digits"},
		{"no hash", "x/a", "want \"name sha256\""},
		{"third field", "x/a " + sumA + " " + sumB, "want \"name sha256\""},
	} {
		if _, err := parse(tc.text); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: parse error %v, want one containing %q", tc.name, err, tc.err)
		}
	}
}

func TestGroupOf(t *testing.T) {
	all := map[string]string{"x/a": sumA, "x/b/c": sumB, "xy/a": sumB, "y/a": sumB}
	p, err := groupOf(all, "x", []string{"a", "b/c"})
	if err != nil {
		t.Fatal(err)
	}
	if p.mismatch("a", sumA) != "" || p.mismatch("b/c", sumB) != "" {
		t.Fatalf("pins %v do not match their own sums", p.sums)
	}
	for _, tc := range []struct {
		name  string
		names []string
		err   string
	}{
		{"missing name", []string{"a", "b/c", "d"}, "group x: no pin for x/d"},
		{"extra name", []string{"a"}, "group x: pins no case of the test: x/b/c"},
		{"name declared twice", []string{"a", "a", "b/c"}, "group x: case a is declared twice"},
	} {
		if _, err := groupOf(all, "x", tc.names); err == nil || err.Error() != tc.err {
			t.Errorf("%s: groupOf error %v, want %q", tc.name, err, tc.err)
		}
	}
}

// TestMismatchPrintsTheReplacementLine checks that a moved pin's failure
// names it and ends with the line that re-pins it.
func TestMismatchPrintsTheReplacementLine(t *testing.T) {
	p := Pins{group: "x", sums: map[string]string{"a": sumA}}
	msg := p.mismatch("a", sumB)
	if !strings.HasPrefix(msg, "pin x/a: sha256 "+sumB) || !strings.HasSuffix(msg, "\nx/a "+sumB) {
		t.Errorf("mismatch message:\n%s", msg)
	}
	if msg := p.mismatch("b", sumA); !strings.Contains(msg, "x/b: not one of the group's declared names") {
		t.Errorf("undeclared name: %q", msg)
	}
}

// TestPinsFile checks that the committed file parses and that every pin
// belongs to a group some golden test reads.
func TestPinsFile(t *testing.T) {
	pins, err := parse(pinsTxt)
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"workload", "nand", "ssd", "audit", "reproduce/traced", "reproduce/artifacts"}
	for name := range pins {
		n := 0
		for _, g := range groups {
			if strings.HasPrefix(name, g+"/") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("pin %s is in %d of the groups %v, want 1", name, n, groups)
		}
	}
}
