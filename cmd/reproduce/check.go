package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// A band pins one cell of a registry figure's Table: the paper's value
// (NaN where the paper states none for this cell), ours when the band was
// recorded at -scale default, and a relative tolerance around ours.
// Bands ratchet: they may tighten, and loosen only with a CHANGES.md line
// saying why.
type band struct {
	row, col string
	paper    float64
	ours     float64
	tol      float64 // |value - ours| <= tol * |ours|
}

// bandTol is the tolerance every band starts at.
const bandTol = 0.02

// none marks a cell the paper reports no number for.
var none = math.NaN()

// bands are the -check bands of each registry figure that carries any,
// keyed by figure id. The paper quotes Fig. 14 as one summary per policy
// (erSSD IOPS <= 0.04, scrSSD ~0.34 avg, secSSD ~0.945 avg; WAF erSSD up
// to 320x, scrSSD up to 4.41x, secSSD ~1.0x), which is each cell's paper
// value. The no-sanitization baseline is the normalization target of
// both figures, so it has no column to band.
var bands = map[string][]band{
	"14a": {
		{"MailServer", "erSSD", 0.04, 0.0064, bandTol},
		{"MailServer", "scrSSD", 0.34, 0.2749, bandTol},
		{"MailServer", "secSSD_nobLock", none, 0.9031, bandTol},
		{"MailServer", "secSSD", 0.945, 0.9894, bandTol},
		{"DBServer", "erSSD", 0.04, 0.0073, bandTol},
		{"DBServer", "scrSSD", 0.34, 0.2242, bandTol},
		{"DBServer", "secSSD_nobLock", none, 0.8961, bandTol},
		{"DBServer", "secSSD", 0.945, 0.9763, bandTol},
		{"FileServer", "erSSD", 0.04, 0.0061, bandTol},
		{"FileServer", "scrSSD", 0.34, 0.2522, bandTol},
		{"FileServer", "secSSD_nobLock", none, 0.8928, bandTol},
		{"FileServer", "secSSD", 0.945, 0.9781, bandTol},
		{"Mobile", "erSSD", 0.04, 0.0182, bandTol},
		{"Mobile", "scrSSD", 0.34, 0.3771, bandTol},
		{"Mobile", "secSSD_nobLock", none, 0.9051, bandTol},
		{"Mobile", "secSSD", 0.945, 0.9339, bandTol},
	},
	"14b": {
		{"MailServer", "erSSD", 320, 265.9249, bandTol},
		{"MailServer", "scrSSD", 4.41, 3.0938, bandTol},
		{"MailServer", "secSSD_nobLock", none, 1, bandTol},
		{"MailServer", "secSSD", 1, 1, bandTol},
		{"DBServer", "erSSD", 320, 259.8495, bandTol},
		{"DBServer", "scrSSD", 4.41, 3.0705, bandTol},
		{"DBServer", "secSSD_nobLock", none, 1, bandTol},
		{"DBServer", "secSSD", 1, 1, bandTol},
		{"FileServer", "erSSD", 320, 239.4265, bandTol},
		{"FileServer", "scrSSD", 4.41, 3.1020, bandTol},
		{"FileServer", "secSSD_nobLock", none, 1, bandTol},
		{"FileServer", "secSSD", 1, 1, bandTol},
		{"Mobile", "erSSD", 320, 96.8136, bandTol},
		{"Mobile", "scrSSD", 4.41, 2.2196, bandTol},
		{"Mobile", "secSSD_nobLock", none, 1, bandTol},
		{"Mobile", "secSSD", 1, 1, bandTol},
	},
	// The eight experiment.Headline fields, in the table's display units
	// (× and %).
	"headline": {
		{"secSSD IOPS over scrSSD", "max", 4.8, 4.4, bandTol},
		{"secSSD IOPS over scrSSD", "avg", 2.9, 3.6, bandTol},
		{"block-erase reduction vs. scrSSD", "max", 79, 76, bandTol},
		{"block-erase reduction vs. scrSSD", "avg", 62, 73, bandTol},
		{"pLock reduction from bLock", "max", 57, 52, bandTol},
		{"pLock reduction from bLock", "avg", 28, 49, bandTol},
		{"IOPS gain from bLock", "max", 5.4, 9.6, bandTol},
		{"IOPS gain from bLock", "avg", 3.1, 7.8, bandTol},
	},
}

// checkBands returns one line per band of figure id that t breaches, or
// whose cell t lacks or cannot parse as a number.
func checkBands(id string, t Table) []string {
	var breaches []string
	for _, b := range bands[id] {
		v, err := t.cell(b.row, b.col)
		if err == nil && math.Abs(v-b.ours) <= b.tol*math.Abs(b.ours) {
			continue
		}
		paper := "—"
		if !math.IsNaN(b.paper) {
			paper = strconv.FormatFloat(b.paper, 'g', -1, 64)
		}
		got := strconv.FormatFloat(v, 'g', -1, 64)
		if err != nil {
			got = err.Error()
		}
		breaches = append(breaches, fmt.Sprintf("-fig %s %s / %s: %s, band %g ± %g%% (paper %s)",
			id, b.row, b.col, got, b.ours, 100*b.tol, paper))
	}
	return breaches
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
