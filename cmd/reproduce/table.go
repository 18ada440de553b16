package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is what every figure builder returns and all a renderer sees:
// cells are final strings, so the two formats cannot disagree on a value.
type Table struct {
	Title string
	// Ref is the paper-reference line: what the paper reports for this
	// artifact, next to any one-line summary of ours.
	Ref  string
	Cols []string
	// Rows are as wide as Cols; the first cell labels the row.
	Rows [][]string
}

func newTable(title, ref string, cols ...string) Table {
	return Table{Title: title, Ref: ref, Cols: cols}
}

// add appends one row.
func (t *Table) add(cells ...string) { t.Rows = append(t.Rows, cells) }

// check fails on a row whose width differs from the header's.
func (t Table) check() error {
	for i, r := range t.Rows {
		if len(r) != len(t.Cols) {
			return fmt.Errorf("table %q: row %d has %d cells, header has %d", t.Title, i, len(r), len(t.Cols))
		}
	}
	return nil
}

// A renderer writes the run header once and each (checked) table after
// it. The output of several tables is the concatenation of each one's.
type renderer struct {
	header func(w io.Writer, lines []string)
	table  func(w io.Writer, id string, t Table) error
}

var renderers = map[string]renderer{
	"md":  {markdownHeader, markdownTable},
	"csv": {csvHeader, csvTable},
}

func markdownHeader(w io.Writer, lines []string) {
	fmt.Fprintf(w, "# Evanesco reproduction report\n\n- %s\n\n", strings.Join(lines, "\n- "))
}

func markdownTable(w io.Writer, id string, t Table) error {
	fmt.Fprintf(w, "## %s\n\n", t.Title)
	if t.Ref != "" {
		fmt.Fprintf(w, "%s\n\n", t.Ref)
	}
	fmt.Fprintf(w, "| %s |\n|%s\n", strings.Join(t.Cols, " | "), strings.Repeat("---|", len(t.Cols)))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	_, err := fmt.Fprintln(w)
	return err
}

func csvHeader(w io.Writer, lines []string) { fmt.Fprintf(w, "# %s\n", strings.Join(lines, "\n# ")) }

// csvTable writes one record per cell — tag, row label, column, value —
// so every table, whatever its shape, lands in the same four columns.
// The tag is the figure id, "fig"-prefixed when it is a figure number.
func csvTable(w io.Writer, id string, t Table) error {
	if id[0] >= '0' && id[0] <= '9' {
		id = "fig" + id
	}
	fmt.Fprintf(w, "# %s\n", t.Title)
	if t.Ref != "" {
		fmt.Fprintf(w, "# %s\n", t.Ref)
	}
	cw := csv.NewWriter(w)
	for _, r := range t.Rows {
		for j := 1; j < len(r); j++ {
			cw.Write([]string{id, r[0], t.Cols[j], r[j]})
		}
	}
	cw.Flush()
	return cw.Error()
}
