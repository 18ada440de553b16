package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/experiment"
)

// A band pins one cell of a registry figure's Table to ours when the band
// was recorded at -scale default, within bandTol. Bands ratchet: they may
// tighten, and loosen only with a CHANGES.md line saying why.
type band struct {
	row, col string
	ours     float64
}

// bandTol is every band's tolerance: |value - ours| <= bandTol * |ours|.
const bandTol = 0.02

// bands are the -check bands of each registry figure that carries any,
// keyed by figure id. The no-sanitization baseline is the normalization
// target of Fig. 14(a) and (b), so it has no column to band.
var bands = map[string][]band{
	"14a": {
		{"MailServer", "erSSD", 0.0064},
		{"MailServer", "scrSSD", 0.2749},
		{"MailServer", "secSSD_nobLock", 0.9031},
		{"MailServer", "secSSD", 0.9894},
		{"DBServer", "erSSD", 0.0073},
		{"DBServer", "scrSSD", 0.2242},
		{"DBServer", "secSSD_nobLock", 0.8961},
		{"DBServer", "secSSD", 0.9763},
		{"FileServer", "erSSD", 0.0061},
		{"FileServer", "scrSSD", 0.2522},
		{"FileServer", "secSSD_nobLock", 0.8928},
		{"FileServer", "secSSD", 0.9781},
		{"Mobile", "erSSD", 0.0182},
		{"Mobile", "scrSSD", 0.3771},
		{"Mobile", "secSSD_nobLock", 0.9051},
		{"Mobile", "secSSD", 0.9339},
	},
	"14b": {
		{"MailServer", "erSSD", 265.9249},
		{"MailServer", "scrSSD", 3.0938},
		{"MailServer", "secSSD_nobLock", 1},
		{"MailServer", "secSSD", 1},
		{"DBServer", "erSSD", 259.8495},
		{"DBServer", "scrSSD", 3.0705},
		{"DBServer", "secSSD_nobLock", 1},
		{"DBServer", "secSSD", 1},
		{"FileServer", "erSSD", 239.4265},
		{"FileServer", "scrSSD", 3.1020},
		{"FileServer", "secSSD_nobLock", 1},
		{"FileServer", "secSSD", 1},
		{"Mobile", "erSSD", 96.8136},
		{"Mobile", "scrSSD", 2.2196},
		{"Mobile", "secSSD_nobLock", 1},
		{"Mobile", "secSSD", 1},
	},
	// The eight experiment.Headline fields, in the table's units (× and %).
	"headline": {
		{"secSSD IOPS over scrSSD", "max", 4.4},
		{"secSSD IOPS over scrSSD", "avg", 3.6},
		{"block-erase reduction vs. scrSSD", "max", 76},
		{"block-erase reduction vs. scrSSD", "avg", 73},
		{"pLock reduction from bLock", "max", 52},
		{"pLock reduction from bLock", "avg", 49},
		{"IOPS gain from bLock", "max", 9.6},
		{"IOPS gain from bLock", "avg", 7.8},
	},
}

// checkBands returns one line per band of figure id that t breaches, or
// whose cell t lacks or cannot parse as a number.
func checkBands(id string, t Table) []string {
	var breaches []string
	for _, b := range bands[id] {
		v, err := t.cell(b.row, b.col)
		if err == nil && math.Abs(v-b.ours) <= bandTol*math.Abs(b.ours) {
			continue
		}
		paper := "—"
		if p, ok := paperValue(id, b.row, b.col); ok {
			paper = strconv.FormatFloat(p, 'g', -1, 64)
		}
		got := strconv.FormatFloat(v, 'g', -1, 64)
		if err != nil {
			got = err.Error()
		}
		breaches = append(breaches, fmt.Sprintf("-fig %s %s / %s: %s, band %g ± %g%% (paper %s)",
			id, b.row, b.col, got, b.ours, 100*bandTol, paper))
	}
	return breaches
}

// paperValue is the paper's value of the cell, in the units figure
// id prints it in, and false where the paper states none.
func paperValue(id, row, col string) (float64, bool) {
	if id == "headline" {
		v, err := headlineTable(experiment.PaperHeadline, experiment.PaperHeadline).cell(row, col)
		return v, err == nil
	}
	v, ok := map[string]map[string]float64{"14a": experiment.PaperIOPS, "14b": experiment.PaperWAF}[id][col]
	return v, ok
}

// cell parses the number in row row, column col, without its × or % sign.
func (t Table) cell(row, col string) (float64, error) {
	j := -1
	for k, c := range t.Cols {
		if c == col {
			j = k
		}
	}
	for _, r := range t.Rows {
		if j > 0 && r[0] == row {
			return strconv.ParseFloat(strings.TrimRight(r[j], "×%"), 64)
		}
	}
	return 0, fmt.Errorf("no cell")
}
