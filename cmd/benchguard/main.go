// Command benchguard compares freshly generated bench reports
// (BENCH_parallel.json, BENCH_batching.json) against the committed
// baseline and fails (exit 1) when throughput regressed beyond the
// threshold. CI runs it after the bench smoke so a PR that slows the
// simulator down shows up as a red check instead of a silently growing
// campaign time.
//
// Usage:
//
//	benchguard -baseline ci/bench_baseline.json -fresh BENCH_parallel.json
//	           [-batching BENCH_batching.json] [-threshold 0.20]
//
// Guarded quantities, each against its own baseline value: serial
// campaign throughput, 4-worker campaign throughput (both in grid-cells
// per second, so a changed grid size stays comparable), the flash-op
// allocation count (machine-independent; a tight canary for hot-path
// allocations creeping back), and — from BENCH_batching.json — the
// simulated IOPS of the amortized and non-amortized devices plus the
// batching speedup floor (simulated time is deterministic, so these are
// exact across machines; the floor is the PR's >= 1.5x acceptance bar).
// Pass -batching "" to skip the batching report (e.g. for historical
// baselines).
//
// The parallel speedup is keyed off the report's skip note, not a zero
// value: a single-CPU runner records "skipped_single_cpu" and omits the
// number (that would only measure goroutine-scheduling noise), and
// benchguard skips the floor. A MULTI-CPU runner that fails to measure
// it is a regression, not a skip — the silent-skip-forever failure mode
// is the thing this gate exists to prevent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// report mirrors the BENCH_parallel.json schema written by
// BenchmarkParallelFigure14 (parallel_bench_test.go). The batching_*
// fields additionally appear in the committed baseline, where they gate
// BENCH_batching.json (see batchingReport).
// Speedup is a pointer so "not measured" (field omitted, or the legacy
// shape that wrote a literal 0 next to the skip note) never reads as a
// measured 0×: skipping is keyed off the note and the CPU count, the
// number itself only ever compares when it was actually measured.
type report struct {
	NumCPU              int      `json:"num_cpu"`
	GridCells           int      `json:"grid_cells"`
	SerialSec           float64  `json:"serial_sec"`
	ParallelSec         float64  `json:"parallel_sec"`
	Speedup             *float64 `json:"speedup,omitempty"`
	SpeedupNote         string   `json:"speedup_note,omitempty"`
	FlashOpsAllocsPerOp float64  `json:"flashops_allocs_per_op"`
	// Baseline-only: simulated-IOPS floors for the batching ablation.
	BatchingDisabledIOPS float64 `json:"batching_disabled_iops,omitempty"`
	BatchingEnabledIOPS  float64 `json:"batching_enabled_iops,omitempty"`
	BatchingMinSpeedup   float64 `json:"batching_min_speedup,omitempty"`
}

// batchingReport mirrors the BENCH_batching.json schema written by
// BenchmarkLockBatching (batching_bench_test.go).
type batchingReport struct {
	DisabledIOPS float64 `json:"batching_disabled_iops"`
	EnabledIOPS  float64 `json:"batching_enabled_iops"`
	Speedup      float64 `json:"batching_speedup"`
}

// cellsPerSec converts a campaign wall-clock into throughput.
func (r report) cellsPerSec(sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return float64(r.GridCells) / sec
}

// compare returns one message per guarded quantity that regressed beyond
// threshold (a fraction: 0.20 means "more than 20% worse than baseline").
func compare(baseline, fresh report, threshold float64) []string {
	var bad []string
	check := func(name string, base, got float64, lowerIsBetter bool) {
		if base <= 0 {
			// No ratio to take. A zero-alloc baseline is still a guarantee
			// worth keeping: regressing it to real allocations fails.
			if lowerIsBetter && got > 0.5 {
				bad = append(bad, fmt.Sprintf("%s: baseline %.3f, fresh %.3f", name, base, got))
				fmt.Printf("%-28s baseline %10.3f   fresh %10.3f   REGRESSED\n", name, base, got)
			}
			return
		}
		var regressed bool
		var ratio float64
		if lowerIsBetter {
			ratio = got / base
			regressed = got > base*(1+threshold)
		} else {
			ratio = base / got
			regressed = got < base*(1-threshold)
		}
		status := "ok"
		if regressed {
			status = "REGRESSED"
			bad = append(bad, fmt.Sprintf("%s: baseline %.3f, fresh %.3f (%.0f%% worse)",
				name, base, got, (ratio-1)*100))
		}
		fmt.Printf("%-28s baseline %10.3f   fresh %10.3f   %s\n", name, base, got, status)
	}
	check("serial cells/sec", baseline.cellsPerSec(baseline.SerialSec), fresh.cellsPerSec(fresh.SerialSec), false)
	check("parallel-4 cells/sec", baseline.cellsPerSec(baseline.ParallelSec), fresh.cellsPerSec(fresh.ParallelSec), false)
	check("flash-op allocs/op", baseline.FlashOpsAllocsPerOp, fresh.FlashOpsAllocsPerOp, true)
	// The parallel-speedup floor only means something with real
	// parallelism: a single-CPU runner records a note instead of a
	// number, and the comparison is skipped. A multi-CPU runner must
	// measure it — a note or a missing number there means the gate would
	// silently never fire again, which is itself a regression.
	switch {
	case fresh.NumCPU <= 1:
		// 0 is a report that never recorded a CPU count — unknowable, so
		// treated like a single-CPU runner.
		fmt.Printf("%-28s skipped (single CPU)\n", "parallel speedup")
	case fresh.SpeedupNote != "" || fresh.Speedup == nil:
		bad = append(bad, fmt.Sprintf(
			"parallel speedup: not measured on a %d-CPU runner (note=%q)",
			fresh.NumCPU, fresh.SpeedupNote))
		fmt.Printf("%-28s fresh not measured on %d CPUs   REGRESSED\n", "parallel speedup", fresh.NumCPU)
	case baseline.Speedup != nil && *baseline.Speedup > 1:
		check("parallel speedup", *baseline.Speedup, *fresh.Speedup, false)
	default:
		fmt.Printf("%-28s measured %.2fx (no baseline floor)\n", "parallel speedup", *fresh.Speedup)
	}
	return bad
}

// compareBatching guards the amortization metrics. Simulated IOPS is
// deterministic, so the threshold only absorbs intentional model
// changes, and the speedup floor is an absolute acceptance bar rather
// than a relative one.
func compareBatching(baseline report, fresh batchingReport, threshold float64) []string {
	var bad []string
	check := func(name string, base, got float64) {
		if base <= 0 {
			return
		}
		status := "ok"
		if got < base*(1-threshold) {
			status = "REGRESSED"
			bad = append(bad, fmt.Sprintf("%s: baseline %.3f, fresh %.3f (%.0f%% worse)",
				name, base, got, (base/got-1)*100))
		}
		fmt.Printf("%-28s baseline %10.3f   fresh %10.3f   %s\n", name, base, got, status)
	}
	check("batching-off sim-IOPS", baseline.BatchingDisabledIOPS, fresh.DisabledIOPS)
	check("batching-on sim-IOPS", baseline.BatchingEnabledIOPS, fresh.EnabledIOPS)
	if min := baseline.BatchingMinSpeedup; min > 0 {
		status := "ok"
		if fresh.Speedup < min {
			status = "REGRESSED"
			bad = append(bad, fmt.Sprintf("batching speedup floor: need >= %.2fx, fresh %.2fx",
				min, fresh.Speedup))
		}
		fmt.Printf("%-28s floor    %10.3f   fresh %10.3f   %s\n", "batching speedup", min, fresh.Speedup, status)
	}
	return bad
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	baselinePath := flag.String("baseline", "ci/bench_baseline.json", "committed baseline report")
	freshPath := flag.String("fresh", "BENCH_parallel.json", "freshly generated report")
	batchingPath := flag.String("batching", "BENCH_batching.json", "freshly generated batching report ('' skips)")
	threshold := flag.Float64("threshold", 0.20, "allowed regression fraction")
	flag.Parse()

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	bad := compare(baseline, fresh, *threshold)
	if *batchingPath != "" {
		var batching batchingReport
		data, err := os.ReadFile(*batchingPath)
		if err == nil {
			err = json.Unmarshal(data, &batching)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		bad = append(bad, compareBatching(baseline, batching, *threshold)...)
	}
	if len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "benchguard: throughput regression beyond threshold:")
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "  -", m)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: within threshold")
}
