package main

import (
	"bytes"
	"encoding/csv"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// A figure whose experiment fails must fail the run, not write the
// error into the report: the zero Scale (BlocksPerChip 0) is rejected by
// every device constructor.
func TestFailingFigureFailsTheRun(t *testing.T) {
	for _, id := range []string{"14a", "14b", "14c", "headline", "ablation", "tinsec"} {
		e := newEnv("small", experiment.Scale{}, 1, nil, 0)
		i := slices.IndexFunc(registry, func(f figure) bool { return f.id == id })
		for name, r := range renderers {
			var report bytes.Buffer
			if _, err := writeFigures(&report, r, registry[i:i+1], e); err == nil {
				t.Errorf("%s/%s: no error from an invalid scale", id, name)
			}
			if report.Len() > 0 {
				t.Errorf("%s/%s: a failed figure wrote into the report:\n%s", id, name, report.String())
			}
		}
	}
}

// Usage errors exit 2 before anything runs: unknown values, flags of two
// modes combined, and -check off the device and workloads its bands were
// recorded on.
func TestUnknownScaleAndFigureExitNonzero(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "bogus", "-out", "-"},
		{"-scale", "small", "-fig", "bogus", "-out", "-"},
		{"-format", "txt", "-out", "-"},
		{"-workloads", "MailServer,Bogus", "-out", "-"},
		{"-trace-policy", "bogus", "-audit-verify"},
		{"-audit-verify", "-attack-verify"},
		{"-audit-verify", "-fig", "tinsec"},
		{"-attack-verify", "-fig", "14a"},
		{"-power-cut", "3", "-fig", "all"},
		{"-audit-verify", "-workloads", "MailServer,Mobile"},
		{"-check", "-out", "-"},
		{"-check", "-scale", "default", "-audit-verify"},
		{"-check", "-scale", "default", "-attack-verify"},
		{"-check", "-scale", "default", "-workloads", "MailServer", "-out", "-"},
		{"-check", "-scale", "default", "-planes", "2", "-out", "-"},
		{"-check", "-scale", "default", "-no-cache-pipeline", "-out", "-"},
		{"-check", "-scale", "default", "-batch", "-out", "-"},
		{"-check", "-scale", "default", "-batch", "-batch-deadline", "2000", "-batch-threshold", "96", "-out", "-"},
		{"-check", "-scale", "default", "-study-pages", "1000", "-out", "-"},
		{"-check", "-scale", "default", "-fault-rate", "1e-3", "-out", "-"},
		{"-check", "-scale", "default", "-fault-seed", "3", "-out", "-"},
		{"-stats-stream", "s.jsonl", "-stats-interval", "0"},
		{"-stats-stream", "s.jsonl", "-stats-interval", "-5"},
		{"-batch-deadline", "2000", "-out", "-"},
		{"-batch-threshold", "96", "-openmetrics", "m.om"},
		{"-stats-interval", "5", "-fig", "9", "-scale", "small", "-out", "-"},
		{"-stats-interval", "5", "-openmetrics", "m.om"},
		{"-fault-rate", "1.5", "-out", "-"},
		{"-fault-rate", "-0.1", "-out", "-"},
		{"-fault-rate", "NaN", "-out", "-"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("reproduce %v exited %d, want 2", args, code)
		}
	}
}

// parseMarkdown returns the header and rows of the one table in md.
func parseMarkdown(t *testing.T, md string) (cols []string, rows [][]string) {
	t.Helper()
	for _, line := range strings.Split(md, "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |"), " | ")
		if cols == nil {
			cols = cells
		} else {
			rows = append(rows, cells)
		}
	}
	if cols == nil {
		t.Fatalf("no table in:\n%s", md)
	}
	return cols, rows
}

// Every registry entry renders in both formats with the same cells, ids
// are unique, and -fig all is the concatenation of the single figures.
func TestRegistry(t *testing.T) {
	e := newEnv("small", experiment.SmallScale(), 2, nil, 0)
	seen := map[string]bool{}
	single := map[string]*bytes.Buffer{"md": {}, "csv": {}}
	for i, f := range registry {
		if seen[f.id] {
			t.Errorf("figure id %q registered twice", f.id)
		}
		seen[f.id] = true

		var md, cs bytes.Buffer
		if _, err := writeFigures(&md, renderers["md"], registry[i:i+1], e); err != nil {
			t.Fatal(err)
		}
		if _, err := writeFigures(&cs, renderers["csv"], registry[i:i+1], e); err != nil {
			t.Fatal(err)
		}
		single["md"].Write(md.Bytes())
		single["csv"].Write(cs.Bytes())

		cols, rows := parseMarkdown(t, md.String())
		if len(rows) == 0 {
			t.Errorf("-fig %s: empty table", f.id)
		}
		r := csv.NewReader(&cs)
		r.Comment = '#'
		records, err := r.ReadAll()
		if err != nil {
			t.Fatalf("-fig %s: csv: %v", f.id, err)
		}
		var want [][]string
		for _, row := range rows {
			for j := 1; j < len(row); j++ {
				want = append(want, []string{records[0][0], row[0], cols[j], row[j]})
			}
		}
		if !slices.EqualFunc(records, want, slices.Equal[[]string]) {
			t.Errorf("-fig %s: csv records differ from the markdown cells\n csv: %v\n  md: %v", f.id, records, want)
		}
	}
	for name, r := range renderers {
		var all bytes.Buffer
		if _, err := writeFigures(&all, r, registry, e); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(all.Bytes(), single[name].Bytes()) {
			t.Errorf("%s: -fig all differs from the concatenated single figures", name)
		}
	}
}

// A row narrower or wider than the header is a builder bug; no format
// may paper over it.
func TestRaggedTableFails(t *testing.T) {
	ragged := []figure{{"x", func(*env) (Table, error) {
		return Table{Title: "ragged", Cols: []string{"a", "b"}, Rows: [][]string{{"x", "1"}, {"y"}}}, nil
	}}}
	for name, r := range renderers {
		var out bytes.Buffer
		if _, err := writeFigures(&out, r, ragged, nil); err == nil {
			t.Errorf("%s rendered a ragged table:\n%s", name, out.String())
		}
		if out.Len() > 0 {
			t.Errorf("%s wrote %q before rejecting the table", name, out.String())
		}
	}
}
