// Package pintest holds every SHA-256 the module's golden tests pin, in
// one file (pins.txt, one "name sha256" line each), so a change that is
// meant to move outputs re-pins them in one diff of one file.
//
// A golden test names all its cases up front and reads its group, the
// pins whose names start with the group and "/"; a pin it lacks or one
// it does not know fails it, whichever subtests -run selects. Each
// digest is then compared by name, and a mismatch prints the line that
// would re-pin it.
package pintest

import (
	_ "embed"
	"fmt"
	"slices"
	"strings"
	"testing"
)

//go:embed pins.txt
var pinsTxt string

// file is where the pins live, as a failure names it.
const file = "internal/pintest/pins.txt"

// Pins is one group's pins, keyed by case name.
type Pins struct {
	group string
	sums  map[string]string
}

// Group returns group's pins. It fails t unless pins.txt parses and the
// group holds exactly the given case names.
func Group(t testing.TB, group string, names ...string) Pins {
	t.Helper()
	all, err := parse(pinsTxt)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	p, err := groupOf(all, group, names)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return p
}

// Check fails t unless sum is the pinned SHA-256 of the named case.
func (p Pins) Check(t testing.TB, name, sum string) {
	t.Helper()
	if msg := p.mismatch(name, sum); msg != "" {
		t.Error(msg)
	}
}

// mismatch is Check's failure message, "" when sum is the pin.
func (p Pins) mismatch(name, sum string) string {
	full := p.group + "/" + name
	want, ok := p.sums[name]
	switch {
	case !ok:
		return fmt.Sprintf("pin %s: not one of the group's declared names", full)
	case sum != want:
		return fmt.Sprintf("pin %s: sha256 %s, want %s\nif the change is meant to move it, replace its line in %s with:\n%s %s",
			full, sum, want, file, full, sum)
	}
	return ""
}

// parse reads "name sha256" lines; blank lines and lines starting with
// "#" are comments. A name is stated once and a hash is 64 lowercase
// hex digits.
func parse(text string) (map[string]string, error) {
	pins := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) != 2:
			return nil, fmt.Errorf("line %d: want \"name sha256\", got %q", i+1, line)
		case !isSHA256(fields[1]):
			return nil, fmt.Errorf("line %d: %s: %q is not 64 lowercase hex digits", i+1, fields[0], fields[1])
		case pins[fields[0]] != "":
			return nil, fmt.Errorf("line %d: %s is pinned twice", i+1, fields[0])
		}
		pins[fields[0]] = fields[1]
	}
	return pins, nil
}

func isSHA256(s string) bool {
	return len(s) == 64 && strings.Trim(s, "0123456789abcdef") == ""
}

// groupOf selects group's pins from all; the group must hold exactly
// names.
func groupOf(all map[string]string, group string, names []string) (Pins, error) {
	p := Pins{group: group, sums: map[string]string{}}
	var missing, extra []string
	for _, name := range names {
		if _, dup := p.sums[name]; dup {
			return Pins{}, fmt.Errorf("group %s: case %s is declared twice", group, name)
		}
		sum, ok := all[group+"/"+name]
		if !ok {
			missing = append(missing, group+"/"+name)
		}
		p.sums[name] = sum
	}
	for full := range all {
		if name, ok := strings.CutPrefix(full, group+"/"); ok && !slices.Contains(names, name) {
			extra = append(extra, full)
		}
	}
	slices.Sort(extra)
	switch {
	case len(missing) > 0:
		return Pins{}, fmt.Errorf("group %s: no pin for %s", group, strings.Join(missing, ", "))
	case len(extra) > 0:
		return Pins{}, fmt.Errorf("group %s: pins no case of the test: %s", group, strings.Join(extra, ", "))
	}
	return p, nil
}
