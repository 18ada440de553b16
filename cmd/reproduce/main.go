// Command reproduce regenerates every artifact of the paper's evaluation
// — Table 1, Figures 4, 6, 9, 10, 11(b), 12, 14(a)(b)(c), the §1 headline
// and the §5.5 overhead — plus this repository's extensions (temperature
// durability, amortization ablation, T_insecure phase breakdown, attack
// matrix). It is the only artifact CLI: each artifact has one builder in
// the registry (figures.go) and renders as markdown or CSV (table.go).
// Three modes share one flag set (-h lists it):
//
//	reproduce [-fig all|<id>] [-scale small|default|paper] [-format md|csv]
//	          [-out report.md] [-parallel N] [-workloads A,B] [device knobs]
//	reproduce -trace run.trace.json [four more exporters] [-audit-verify]
//	          [-trace-policy secSSD] [-workloads MailServer] [device knobs]
//	reproduce -attack-verify [-attack-json scores.json] [-power-cut N]
//	reproduce -check -scale default [-fig <id>] [-out -]
//
// Figures: -scale sizes every figure from one place — the simulated SSD
// (experiment.Scale) and, in newEnv, the wordlines sampled per chip
// scenario and the §3 study's device; small takes about a second,
// default about ten. -format csv writes one record per cell (tag, row,
// column, value) under "#" comment lines: the effective configuration,
// each table's title and its paper reference. The device knobs (-planes,
// -no-cache-pipeline, -batch, -batch-deadline, -batch-threshold,
// -study-pages, -fault-rate, -fault-seed) apply to every simulated SSD;
// output is byte-identical for any -parallel.
//
// Traced run: ONE workload × policy cell under a trace.Recorder instead
// of figures (so no -fig), written through any of -trace (Chrome
// trace_event JSON, open at ui.perfetto.dev), -trace-jsonl, -stats-stream
// with -stats-interval, -openmetrics and -audit-json;
// -audit-verify exits 1 if a secured copy is still readable at the end.
//
// Attack gate: implies -fig attack. -power-cut N keeps only power-cut
// cells, cutting the Nth sanitize operation of the delete; -attack-verify
// exits 1 unless every sanitizing policy leaks nothing AND the baseline
// control leaks (a toothless control fails too).
//
// Check: -check writes the figures that carry tolerance bands (check.go:
// our value of each Fig. 14(a), 14(b) and headline cell at -scale default,
// ±2 %), exits 1 if a cell leaves its band, naming the paper's value (from
// experiment), and prints fig14_err (experiment.PaperError) to stderr.
//
// Exit codes: 2 for usage errors (an unknown -fig, -scale, -format,
// -workloads or -trace-policy value, flags of two modes combined, -check
// with a flag that changes what the bands were recorded on, a traced run
// given more than one workload, a -stats-interval that is not positive or
// has no -stats-stream to pace, -batch-deadline or -batch-threshold
// without -batch, or a -fault-rate outside [0, 1]),
// 1 for a failed experiment, export, gate or band.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/attack"
	"repro/internal/experiment"
	"repro/internal/ftl"
	"repro/internal/prof"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with an exit code, so deferred cleanup (the profiles) runs
// before the process exits on every path.
func run(args []string) int {
	fs := flag.NewFlagSet("reproduce", flag.ExitOnError)
	fig := fs.String("fig", "all", "all, or one of: "+figureIDs())
	scaleName := fs.String("scale", "small", "small, default, or paper")
	format := fs.String("format", "md", "md (markdown) or csv")
	out := fs.String("out", "report.md", "report path ('-' for stdout)")
	parallelN := fs.Int("parallel", 0, "worker count for independent simulations (<=0: one per CPU)")
	workloads := fs.String("workloads", "", "comma-separated subset of workloads (default: each figure's own set)")
	planes := fs.Int("planes", 0, "planes per chip (0/1: single-plane)")
	noCachePipe := fs.Bool("no-cache-pipeline", false, "disable cache-mode transfer/array overlap")
	batch := fs.Bool("batch", false, "enable wordline-aware pLock batching")
	batchDeadline := fs.Int64("batch-deadline", 0, "µs a partial wordline group may defer (0: flush per request)")
	batchThreshold := fs.Int("batch-threshold", 0, "force-flush the lock queue at N pages (0: none)")
	studyPages := fs.Uint64("study-pages", 0, "override the scale's measured write volume (0: scale default)")
	faultRate := fs.Float64("fault-rate", 0, "per-operation fault-injection probability (0 disables)")
	faultSeed := fs.Int64("fault-seed", 0, "fault-schedule seed (0: use the run seed)")
	var files experiment.TracedFiles
	fs.StringVar(&files.Chrome, "trace", "", "traced run: write Chrome trace_event JSON here")
	fs.StringVar(&files.JSONL, "trace-jsonl", "", "traced run: write the raw event log as JSONL here")
	fs.StringVar(&files.OpenMetrics, "openmetrics", "", "traced run: write the OpenMetrics text exposition here")
	fs.StringVar(&files.Audit, "audit-json", "", "traced run: write the sanitization audit report JSON here")
	fs.StringVar(&files.Stream, "stats-stream", "", "traced run: stream periodic telemetry samples (JSONL) here")
	fs.Int64Var(&files.StreamInterval, "stats-interval", 10_000, "simulated µs between streamed samples")
	auditVerify := fs.Bool("audit-verify", false, "traced run: exit 1 if the end-of-run audit verifier finds a live unlocked copy")
	tracePolicy := fs.String("trace-policy", "secSSD", "policy for the traced run")
	attackJSON := fs.String("attack-json", "", "attack gate: write the attack-score matrix and verdict JSON here")
	attackVerify := fs.Bool("attack-verify", false, "attack gate: exit 1 unless sanitizers leak nothing and the control leaks")
	powerCut := fs.Uint64("power-cut", 0, "attack gate: power-cut cells only, cutting the Nth sanitize op of the delete")
	check := fs.Bool("check", false, "exit 1 if a banded figure cell leaves its band (needs -scale default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile here")
	memprofile := fs.String("memprofile", "", "write a heap profile here on exit")
	fs.Parse(args)

	exit := func(code int, err error) int {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		return code
	}

	// Which mode the flags select; two at once is an error, not a winner.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	anySet := func(names ...string) bool {
		return slices.ContainsFunc(names, func(n string) bool { return set[n] })
	}
	traced := anySet("trace", "trace-jsonl", "openmetrics", "audit-json", "stats-stream", "audit-verify")
	gate := anySet("attack-json", "attack-verify", "power-cut")
	switch {
	case traced && gate:
		return exit(2, errors.New("traced-run flags and attack-gate flags select different runs; give one set"))
	case traced && set["fig"]:
		return exit(2, errors.New("traced-run flags capture one workload × policy run, not a figure; drop -fig"))
	case *check && (traced || gate):
		return exit(2, errors.New("-check checks figures; drop the traced-run and attack-gate flags"))
	case *check && *scaleName != "default":
		return exit(2, fmt.Errorf("-check bands are recorded at -scale default, not %s", *scaleName))
	case *check && anySet("workloads", "planes", "no-cache-pipeline", "batch", "batch-deadline", "batch-threshold",
		"study-pages", "fault-rate", "fault-seed"):
		return exit(2, errors.New("-check bands are recorded on the default device over every workload; drop -workloads and the device knobs"))
	case gate && set["fig"] && *fig != "attack":
		return exit(2, fmt.Errorf("attack-gate flags apply to -fig attack, not -fig %s", *fig))
	case files.StreamInterval <= 0:
		return exit(2, fmt.Errorf("-stats-interval must be positive simulated µs, not %d", files.StreamInterval))
	case set["stats-interval"] && !set["stats-stream"]:
		return exit(2, errors.New("-stats-interval paces the telemetry stream; add -stats-stream"))
	case !*batch && anySet("batch-deadline", "batch-threshold"):
		return exit(2, errors.New("-batch-deadline and -batch-threshold tune lock batching; add -batch"))
	case !(*faultRate >= 0 && *faultRate <= 1): // NaN fails both comparisons
		return exit(2, fmt.Errorf("-fault-rate is a probability in [0, 1], not %g", *faultRate))
	case gate:
		*fig = "attack"
	}

	sc, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		return exit(2, err)
	}
	sc.FaultRate, sc.FaultSeed = *faultRate, *faultSeed
	sc.Planes, sc.NoCachePipeline = *planes, *noCachePipe
	if *studyPages > 0 {
		sc.StudyPages = *studyPages
		sc.SlowPolicyStudyPages = min(sc.SlowPolicyStudyPages, sc.StudyPages)
	}
	if *batch {
		sc.LockBatch = ftl.LockBatchConfig{Enabled: true, Deadline: sim.Micros(*batchDeadline), Threshold: *batchThreshold}
	}
	render, ok := renderers[*format]
	if !ok {
		return exit(2, fmt.Errorf("unknown format %q (want md or csv)", *format))
	}
	var profiles []workload.Profile
	if *workloads != "" {
		for _, name := range strings.Split(*workloads, ",") {
			p, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				return exit(2, err)
			}
			profiles = append(profiles, p)
		}
	}
	if traced && len(profiles) > 1 {
		return exit(2, fmt.Errorf("traced-run flags capture one workload × policy run; -workloads names %d", len(profiles)))
	}
	policy, err := sanitize.ByName(*tracePolicy)
	if err != nil {
		return exit(2, err)
	}
	figs := registry
	if *check && !set["fig"] {
		figs = slices.DeleteFunc(slices.Clone(registry), func(f figure) bool { return bands[f.id] == nil })
	}
	if *fig != "all" {
		i := slices.IndexFunc(registry, func(f figure) bool { return f.id == *fig })
		if i < 0 {
			return exit(2, fmt.Errorf("unknown figure %q (want all, or one of: %s)", *fig, figureIDs()))
		}
		figs = registry[i : i+1]
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return exit(1, err)
	}
	defer stopProf()
	header := headerLines(*scaleName, sc)

	if traced {
		csvHeader(os.Stdout, header)
		cell := workload.MailServer()
		if len(profiles) > 0 {
			cell = profiles[0]
		}
		rep, err := experiment.TracedRun(cell, policy, sc, files, os.Stdout)
		if err == nil && *auditVerify && !rep.Clean() {
			err = fmt.Errorf("audit verification failed: %v", rep.Err())
		}
		if err != nil {
			return exit(1, err)
		}
		return 0
	}

	w, closeOut := io.Writer(os.Stdout), func() error { return nil }
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return exit(1, err)
		}
		defer f.Close() // error paths; the success path checks closeOut
		w, closeOut = f, f.Close
	}
	e := newEnv(*scaleName, sc, *parallelN, profiles, *powerCut)
	render.header(w, header)
	breaches, err := writeFigures(w, render, figs, e)
	if err == nil {
		err = closeOut()
	}
	if err != nil {
		return exit(1, err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	}
	if *check {
		rows, err := e.cells.Figure14(e.sc, e.profiles, e.workers)
		if err != nil {
			return exit(1, err)
		}
		fmt.Fprintf(os.Stderr, "fig14_err %.6g\n", experiment.PaperError(rows, experiment.ComputeHeadline(rows)))
		if len(breaches) > 0 {
			return exit(1, fmt.Errorf("%d cells out of band:\n  %s", len(breaches), strings.Join(breaches, "\n  ")))
		}
		fmt.Fprintln(os.Stderr, "every banded cell is within its band")
	}
	if gate {
		if err := attackGate(e, *attackJSON, *attackVerify); err != nil {
			return exit(1, err)
		}
	}
	return 0
}

// writeFigures builds, checks and renders figs in order and returns their
// band breaches; the first one that fails ends the report with its error,
// before any of it is written.
func writeFigures(w io.Writer, r renderer, figs []figure, e *env) ([]string, error) {
	var breaches []string
	for _, f := range figs {
		t, err := f.build(e)
		if err == nil {
			err = t.check()
		}
		if err == nil {
			err = r.table(w, f.id, t)
		}
		if err != nil {
			return nil, fmt.Errorf("-fig %s: %w", f.id, err)
		}
		breaches = append(breaches, checkBands(f.id, t)...)
	}
	return breaches, nil
}

// headerLines is the effective configuration: a run is reproducible
// from these lines alone.
func headerLines(scale string, sc experiment.Scale) []string {
	faults := "fault-rate=0"
	if sc.FaultRate > 0 {
		faults = fmt.Sprintf("fault-rate=%g fault-seed=%d", sc.FaultRate, cmp.Or(sc.FaultSeed, sc.Seed))
	}
	batching := "off"
	if sc.LockBatch.Enabled {
		batching = fmt.Sprintf("on deadline=%v threshold=%d", sc.LockBatch.Deadline, sc.LockBatch.Threshold)
	}
	return []string{
		fmt.Sprintf("scale=%s seed=%d %s", scale, sc.Seed, faults),
		fmt.Sprintf("device: %d channels x %d chips, %d blocks/chip, %d WLs/block (TLC), %d B pages",
			experiment.Channels, experiment.ChipsPerChannel, sc.BlocksPerChip, sc.WLsPerBlock, sc.PageBytes),
		fmt.Sprintf("parallelism: planes=%d cache-pipeline=%s queue-depth=%d plock-batching=%s",
			max(sc.Planes, 1), pick(sc.NoCachePipeline, "off", "on"), ssd.DefaultQueueDepth, batching),
		fmt.Sprintf("study: %d pages after %.0f%% prefill", sc.StudyPages, 100*sc.PrefillFraction),
	}
}

// attackGate writes the -attack-json document (every cell's score plus
// the verdict) and, under -attack-verify, fails on a failed verdict.
func attackGate(e *env, jsonPath string, verify bool) error {
	scores, err := e.attack()
	if err != nil {
		return err
	}
	verdict := attack.Verify(scores)
	if jsonPath != "" {
		doc, err := json.MarshalIndent(struct {
			Seed    int64          `json:"seed"`
			Scores  []attack.Score `json:"scores"`
			Verdict attack.Verdict `json:"verdict"`
		}{e.sc.Seed, scores, verdict}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(doc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "attack scores written to %s\n", jsonPath)
	}
	if verify && !verdict.Pass {
		return fmt.Errorf("attack verification failed: %s", strings.Join(verdict.Failures, "; "))
	}
	return nil
}
