package main

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// bandTable renders a figure's bands as the Table its builder would
// return if every cell sat exactly on its recorded value.
func bandTable(id string) Table {
	t := newTable(id, "", "")
	for _, b := range bands[id] {
		if !slices.Contains(t.Cols, b.col) {
			t.Cols = append(t.Cols, b.col)
		}
	}
	for _, b := range bands[id] {
		i := slices.IndexFunc(t.Rows, func(r []string) bool { return r[0] == b.row })
		if i < 0 {
			t.add(append([]string{b.row}, make([]string, len(t.Cols)-1)...)...)
			i = len(t.Rows) - 1
		}
		t.Rows[i][slices.Index(t.Cols, b.col)] = strconv.FormatFloat(b.ours, 'f', -1, 64) + "%"
	}
	return t
}

// A table on its recorded values is within every band; moving any one
// cell just past its tolerance, either way, breaches that band alone.
func TestCheckBandsCatchesPerturbedCell(t *testing.T) {
	for id, bs := range bands {
		if !slices.ContainsFunc(registry, func(f figure) bool { return f.id == id }) {
			t.Errorf("bands for %q, which is no registry id", id)
		}
		if got := checkBands(id, bandTable(id)); len(got) > 0 {
			t.Errorf("-fig %s on its own recorded values: %v", id, got)
		}
		for _, b := range bs {
			for _, sign := range []float64{-1, 1} {
				tab := bandTable(id)
				tab.Rows = slices.Clone(tab.Rows)
				i := slices.IndexFunc(tab.Rows, func(r []string) bool { return r[0] == b.row })
				tab.Rows[i] = slices.Clone(tab.Rows[i])
				v := b.ours + sign*1.01*bandTol*b.ours
				tab.Rows[i][slices.Index(tab.Cols, b.col)] = strconv.FormatFloat(v, 'f', -1, 64)
				got := checkBands(id, tab)
				if len(got) != 1 || !strings.Contains(got[0], b.row+" / "+b.col) {
					t.Errorf("-fig %s %s / %s perturbed to %g: breaches %v, want that cell alone", id, b.row, b.col, v, got)
				}
			}
		}
	}
}

// A banded cell missing from the table is a breach, not a pass.
func TestCheckBandsMissingCell(t *testing.T) {
	tab := bandTable("headline")
	tab.Rows = tab.Rows[1:]
	if got := checkBands("headline", tab); len(got) != 2 {
		t.Errorf("headline without its first row: %d breaches, want 2: %v", len(got), got)
	}
}

// A breach names the paper's value of its cell, or "—" where the paper
// states none.
func TestCheckBandsNamePaperValue(t *testing.T) {
	for col, want := range map[string]string{"secSSD": "(paper 0.945)", "secSSD_nobLock": "(paper —)"} {
		tab := bandTable("14a")
		tab.Rows = slices.Clone(tab.Rows)
		tab.Rows[0] = slices.Clone(tab.Rows[0])
		tab.Rows[0][slices.Index(tab.Cols, col)] = "0"
		got := checkBands("14a", tab)
		if len(got) != 1 || !strings.HasSuffix(got[0], want) {
			t.Errorf("-fig 14a %s / %s at 0: breaches %v, want one ending %q", tab.Rows[0][0], col, got, want)
		}
	}
}
