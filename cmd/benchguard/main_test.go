package main

import (
	"encoding/json"
	"testing"
)

func fp(v float64) *float64 { return &v }

func TestCompare(t *testing.T) {
	base := report{GridCells: 4, SerialSec: 4, ParallelSec: 1, FlashOpsAllocsPerOp: 1.0}
	cases := []struct {
		name  string
		fresh report
		bad   int
	}{
		{"identical", base, 0},
		{"within threshold", report{GridCells: 4, SerialSec: 4.5, ParallelSec: 1.1, FlashOpsAllocsPerOp: 1.1}, 0},
		{"serial regressed", report{GridCells: 4, SerialSec: 6, ParallelSec: 1, FlashOpsAllocsPerOp: 1.0}, 1},
		{"parallel regressed", report{GridCells: 4, SerialSec: 4, ParallelSec: 1.5, FlashOpsAllocsPerOp: 1.0}, 1},
		{"allocs regressed", report{GridCells: 4, SerialSec: 4, ParallelSec: 1, FlashOpsAllocsPerOp: 1.5}, 1},
		{"everything regressed", report{GridCells: 4, SerialSec: 8, ParallelSec: 3, FlashOpsAllocsPerOp: 2.0}, 3},
		// A bigger grid at proportionally bigger wall clock is the same
		// throughput, not a regression.
		{"grid resized", report{GridCells: 8, SerialSec: 8, ParallelSec: 2, FlashOpsAllocsPerOp: 1.0}, 0},
		// Faster is never a regression.
		{"improved", report{GridCells: 4, SerialSec: 2, ParallelSec: 0.5, FlashOpsAllocsPerOp: 0.2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := compare(base, tc.fresh, 0.20); len(got) != tc.bad {
				t.Fatalf("compare flagged %d regressions (%v), want %d", len(got), got, tc.bad)
			}
		})
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	// A zeroed baseline (e.g. a hand-written placeholder) guards nothing
	// rather than dividing by zero or failing spuriously.
	if got := compare(report{}, report{GridCells: 4, SerialSec: 4}, 0.20); len(got) != 0 {
		t.Fatalf("zero baseline flagged %v", got)
	}
}

func TestCompareZeroAllocBaselineStillGuards(t *testing.T) {
	base := report{GridCells: 4, SerialSec: 4, ParallelSec: 1, FlashOpsAllocsPerOp: 0}
	fresh := base
	fresh.FlashOpsAllocsPerOp = 1.2
	if got := compare(base, fresh, 0.20); len(got) != 1 {
		t.Fatalf("zero-alloc baseline did not flag alloc creep: %v", got)
	}
}

func TestSpeedupSchemaShapes(t *testing.T) {
	// Legacy reports wrote a literal 0 next to the skip note; current
	// ones omit the field entirely. Both must parse, and in both the note
	// (not the number) decides the skip.
	var legacy, current report
	if err := json.Unmarshal([]byte(`{"num_cpu":1,"speedup":0,"speedup_note":"skipped_single_cpu"}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Speedup == nil || *legacy.Speedup != 0 || legacy.SpeedupNote != "skipped_single_cpu" {
		t.Fatalf("legacy shape parsed as %+v", legacy)
	}
	if err := json.Unmarshal([]byte(`{"num_cpu":1,"speedup_note":"skipped_single_cpu"}`), &current); err != nil {
		t.Fatal(err)
	}
	if current.Speedup != nil {
		t.Fatalf("omitted speedup parsed as %v", *current.Speedup)
	}
	for name, fresh := range map[string]report{"legacy": legacy, "current": current} {
		if got := compare(report{Speedup: fp(3)}, fresh, 0.20); len(got) != 0 {
			t.Fatalf("%s single-CPU skip flagged %v", name, got)
		}
	}
}

func TestCompareSpeedupGate(t *testing.T) {
	base := report{Speedup: fp(3)}
	cases := []struct {
		name  string
		fresh report
		bad   int
	}{
		{"single-cpu skip", report{NumCPU: 1, SpeedupNote: "skipped_single_cpu"}, 0},
		{"unknown-cpu skip", report{}, 0},
		// A multi-CPU runner that fails to measure is a regression, in
		// either schema shape — the silent-skip-forever failure mode.
		{"multi-cpu with note", report{NumCPU: 4, Speedup: fp(0), SpeedupNote: "skipped_single_cpu"}, 1},
		{"multi-cpu missing", report{NumCPU: 4}, 1},
		{"multi-cpu below baseline", report{NumCPU: 4, Speedup: fp(2.0)}, 1},
		{"multi-cpu healthy", report{NumCPU: 4, Speedup: fp(2.9)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := compare(base, tc.fresh, 0.20); len(got) != tc.bad {
				t.Fatalf("compare flagged %d regressions (%v), want %d", len(got), got, tc.bad)
			}
		})
	}
}

func TestCompareBatching(t *testing.T) {
	base := report{
		BatchingDisabledIOPS: 355,
		BatchingEnabledIOPS:  595,
		BatchingMinSpeedup:   1.5,
	}
	cases := []struct {
		name  string
		fresh batchingReport
		bad   int
	}{
		{"identical", batchingReport{DisabledIOPS: 355, EnabledIOPS: 595, Speedup: 1.68}, 0},
		{"within threshold", batchingReport{DisabledIOPS: 300, EnabledIOPS: 500, Speedup: 1.67}, 0},
		{"enabled regressed", batchingReport{DisabledIOPS: 355, EnabledIOPS: 400, Speedup: 1.6}, 1},
		{"speedup below floor", batchingReport{DisabledIOPS: 355, EnabledIOPS: 500, Speedup: 1.41}, 1},
		{"both", batchingReport{DisabledIOPS: 200, EnabledIOPS: 210, Speedup: 1.05}, 3},
		// Faster is never a regression.
		{"improved", batchingReport{DisabledIOPS: 500, EnabledIOPS: 1200, Speedup: 2.4}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := compareBatching(base, tc.fresh, 0.20); len(got) != tc.bad {
				t.Fatalf("compareBatching flagged %d regressions (%v), want %d", len(got), got, tc.bad)
			}
		})
	}
}

func TestCompareBatchingZeroBaseline(t *testing.T) {
	// A baseline predating the batching metrics guards nothing for them.
	fresh := batchingReport{DisabledIOPS: 355, EnabledIOPS: 595, Speedup: 1.68}
	if got := compareBatching(report{}, fresh, 0.20); len(got) != 0 {
		t.Fatalf("pre-batching baseline flagged %v", got)
	}
}
