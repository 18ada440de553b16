package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// A figure whose experiment fails must fail the run, not write the
// error into the report: the zero Scale (BlocksPerChip 0) is rejected by
// every device constructor.
func TestFailingFigureFailsTheRun(t *testing.T) {
	bad := experiment.Scale{}
	for name, write := range map[string]func(io.Writer) error{
		"figure14": func(w io.Writer) error { return writeFigure14(w, bad, 1) },
		"ablation": func(w io.Writer) error { return writeBatchingAblation(w, bad, 1) },
		"tinsec":   func(w io.Writer) error { return writeTInsecFigure(w, bad, 1) },
		"report":   func(w io.Writer) error { return writeReport(w, "tinsec", bad, 1) },
	} {
		var report bytes.Buffer
		if err := write(&report); err == nil {
			t.Errorf("%s: no error from an invalid scale", name)
		}
		if strings.Contains(report.String(), "failed") {
			t.Errorf("%s: error written into the report:\n%s", name, report.String())
		}
	}
}

func TestUnknownScaleAndFigureExitNonzero(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "bogus", "-out", "-"},
		{"-scale", "small", "-fig", "bogus", "-out", "-"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("reproduce %v exited 0", args)
		}
	}
}
