// Command secssd-bench regenerates the paper's system-level evaluation:
// Figure 14(a) (normalized IOPS), Figure 14(b) (normalized WAF),
// Figure 14(c) (IOPS vs. secured-data fraction), and the §1 headline
// aggregates.
//
// Usage:
//
//	secssd-bench [-fig 14a|14b|14c|headline|ablation|all]
//	             [-scale small|default|paper] [-parallel N]
//	             [-workloads MailServer,DBServer,FileServer,Mobile]
//	             [-planes N] [-no-cache-pipeline]
//	             [-batch] [-batch-deadline US] [-batch-threshold N]
//	             [-fault-rate R] [-fault-seed S] [-study-pages N]
//	             [-csv] [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -planes stripes writes over N planes per chip with shared-pulse
// multi-plane commands; -batch enables wordline-aware pLock batching
// (one SBPI pulse per wordline instead of per page), with
// -batch-deadline bounding how long a partial wordline group may defer
// (µs, 0 = flush at every request) and -batch-threshold force-flushing
// the queue at N pages. -fig ablation runs the amortization ladder
// (disabled → pipelined → batched) on the Mobile workload.
//
// -fault-rate enables deterministic fault injection: every program,
// erase, pLock, and bLock fails with probability R (scaled by per-block
// wear), and reads run at a raw bit-error rate of R × the ECC limit. The
// fault schedule is a pure function of -fault-seed (default: the run
// seed), so any campaign result is bit-reproducible.
//
// -parallel runs the independent workload×policy simulations on N
// workers (default: one per CPU); results are bit-identical to serial.
// Each simulated device runs on one goroutine. -study-pages overrides
// the scale's measured write volume.
//
// Tracing mode (runs ONE workload×policy instead of the figure sweep):
//
//	secssd-bench -trace run.trace.json [-trace-jsonl run.jsonl]
//	             [-stats-json run.stats.json] [-trace-policy secSSD]
//	             [-openmetrics run.om] [-audit-json run.audit.json]
//	             [-stats-stream run.stream.jsonl] [-stats-interval US]
//	             [-scale small] [-workloads MailServer]
//
// The -trace file is Chrome trace_event JSON: open it at
// ui.perfetto.dev or chrome://tracing to see every NAND operation laid
// out per chip and channel, with GC passes and live gauges alongside.
//
// -openmetrics writes the full telemetry surface in the OpenMetrics /
// Prometheus text exposition. -stats-stream captures a periodic
// telemetry sample (one JSONL StreamPoint per -stats-interval µs of
// simulated time, default 10 ms). -audit-json writes the sanitization
// audit: the provenance ledger's counters, the T_insecure phase
// breakdown, and the end-of-run verifier report listing any secured
// copy still invalidated but not destroyed.
//
// Attack mode (runs the adversarial forensics matrix instead of the
// figure sweep):
//
//	secssd-bench -attack-json scores.json [-attack-verify] [-power-cut N]
//
// The matrix plays the §5.1 attacker (raw chip dump, retention-aided
// read, power-cut-then-dump) against every policy and scores
// recoverable secured bytes, cross-checked against the audit ledger.
// -power-cut N restricts the matrix to the power-cut scenario with the
// cut striking the Nth sanitize operation of the delete. -attack-verify
// exits nonzero unless every sanitizing policy recovers zero bytes AND
// the baseline control leaks (a toothless control fails too); this is
// the CI forensics gate.
//
// Absolute IOPS values come from the emulated timing model; the paper's
// claims are about the normalized shape, which is what the tables print.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/experiment"
	"repro/internal/ftl"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "14a, 14b, 14c, headline, ablation, or all")
	scaleName := flag.String("scale", "default", "small, default, or paper")
	parallelN := flag.Int("parallel", 0, "worker count for independent simulations (<=0: one per CPU)")
	workloads := flag.String("workloads", "", "comma-separated subset of workloads (default all four)")
	planes := flag.Int("planes", 0, "planes per chip (0/1: single-plane)")
	noCachePipe := flag.Bool("no-cache-pipeline", false, "disable cache-mode transfer/array overlap")
	batch := flag.Bool("batch", false, "enable wordline-aware pLock batching")
	batchDeadline := flag.Int64("batch-deadline", 0, "µs a partial wordline group may defer (0: flush per request)")
	batchThreshold := flag.Int("batch-threshold", 0, "force-flush the lock queue at N pages (0: none)")
	studyPages := flag.Int("study-pages", 0, "override the scale's measured write volume (0: scale default)")
	csv := flag.Bool("csv", false, "emit CSV")
	traceFile := flag.String("trace", "", "capture one traced run and write Chrome trace_event JSON here")
	traceJSONL := flag.String("trace-jsonl", "", "also write the raw event log as JSONL here")
	statsJSON := flag.String("stats-json", "", "write the telemetry snapshot JSON here")
	openMetrics := flag.String("openmetrics", "", "write the OpenMetrics text exposition here")
	auditJSON := flag.String("audit-json", "", "write the sanitization audit report JSON here")
	statsStream := flag.String("stats-stream", "", "stream periodic telemetry samples (JSONL) here")
	auditVerify := flag.Bool("audit-verify", false, "exit nonzero if the end-of-run audit verifier finds a live unlocked copy")
	attackJSON := flag.String("attack-json", "", "attack mode: write the attack-score matrix and verdict JSON here")
	attackVerify := flag.Bool("attack-verify", false, "attack mode: exit nonzero unless sanitizers leak nothing and the control leaks")
	powerCut := flag.Uint64("power-cut", 0, "attack mode: power-cut cells only, cutting the Nth sanitize op of the delete")
	statsInterval := flag.Int64("stats-interval", 10_000, "simulated µs between streamed samples")
	tracePolicy := flag.String("trace-policy", "secSSD", "policy for the traced run")
	faultRate := flag.Float64("fault-rate", 0, "per-operation fault-injection probability (0 disables)")
	faultSeed := flag.Int64("fault-seed", 0, "fault-schedule seed (0: use the run seed)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secssd-bench:", err)
		os.Exit(1)
	}
	defer stopProf()
	die := func(code int) {
		stopProf()
		os.Exit(code)
	}

	sc, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secssd-bench:", err)
		die(2)
	}
	sc.FaultRate = *faultRate
	sc.FaultSeed = *faultSeed
	sc.Planes = *planes
	sc.NoCachePipeline = *noCachePipe
	if *studyPages > 0 {
		sc.StudyPages = uint64(*studyPages)
		if sc.SlowPolicyStudyPages > sc.StudyPages {
			sc.SlowPolicyStudyPages = sc.StudyPages
		}
	}
	if *batch {
		sc.LockBatch = ftl.LockBatchConfig{
			Enabled:   true,
			Deadline:  sim.Micros(*batchDeadline),
			Threshold: *batchThreshold,
		}
	}

	// Attack mode replaces the figure sweep entirely: the harness builds
	// its own compact devices, so the bench scale only contributes the
	// run seed.
	if *attackJSON != "" || *attackVerify || *powerCut > 0 {
		pass, err := runAttack(sc.Seed, *powerCut, *attackJSON, *parallelN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "secssd-bench:", err)
			die(1)
		}
		if !pass && *attackVerify {
			die(1)
		}
		return
	}

	// Effective configuration up front: everything below is reproducible
	// from these lines alone.
	if sc.FaultRate > 0 {
		fc := sc.FaultConfig()
		fmt.Printf("# scale=%s seed=%d fault-rate=%g fault-seed=%d\n",
			*scaleName, sc.Seed, sc.FaultRate, fc.Seed)
	} else {
		fmt.Printf("# scale=%s seed=%d fault-rate=0\n", *scaleName, sc.Seed)
	}
	printDeviceConfig(sc, *scaleName)

	var profiles []workload.Profile
	if *workloads != "" {
		for _, name := range strings.Split(*workloads, ",") {
			p, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "secssd-bench:", err)
				die(2)
			}
			profiles = append(profiles, p)
		}
	}

	if *traceFile != "" || *traceJSONL != "" || *statsJSON != "" ||
		*openMetrics != "" || *auditJSON != "" || *statsStream != "" ||
		*auditVerify {
		policy, err := experiment.PolicyByName(*tracePolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "secssd-bench:", err)
			die(1)
		}
		prof := workload.MailServer()
		if len(profiles) > 0 {
			prof = profiles[0]
		}
		rep, err := experiment.TracedRun(prof, policy, sc, experiment.TracedFiles{
			Chrome:         *traceFile,
			JSONL:          *traceJSONL,
			Stats:          *statsJSON,
			OpenMetrics:    *openMetrics,
			Audit:          *auditJSON,
			Stream:         *statsStream,
			StreamInterval: *statsInterval,
		}, os.Stdout)
		if err == nil && *auditVerify && !rep.Clean() {
			err = fmt.Errorf("audit verification failed: %v", rep.Err())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "secssd-bench:", err)
			die(1)
		}
		return
	}

	switch *fig {
	case "all", "14a", "14b", "14c", "headline", "ablation":
	default:
		fmt.Fprintf(os.Stderr, "secssd-bench: unknown figure %q (want 14a, 14b, 14c, headline, ablation, or all)\n", *fig)
		die(2)
	}

	needAB := *fig == "all" || *fig == "14a" || *fig == "14b" || *fig == "headline"
	var rows []experiment.Fig14Row
	if needAB {
		var err error
		rows, err = experiment.Figure14Parallel(sc, profiles, *parallelN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "secssd-bench:", err)
			die(1)
		}
	}
	if *fig == "all" || *fig == "14a" {
		printFig14a(rows, *csv)
	}
	if *fig == "all" || *fig == "14b" {
		printFig14b(rows, *csv)
	}
	if *fig == "all" || *fig == "14c" {
		pts, err := experiment.Figure14cParallel(sc, profiles, nil, *parallelN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "secssd-bench:", err)
			die(1)
		}
		printFig14c(pts, *csv)
	}
	if *fig == "all" || *fig == "headline" {
		printHeadline(experiment.ComputeHeadline(rows))
	}
	if *fig == "all" || *fig == "ablation" {
		cells, err := experiment.BatchingAblation(sc, *parallelN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "secssd-bench:", err)
			die(1)
		}
		printAblation(cells, *csv)
	}
}

// printDeviceConfig prints the full effective device configuration so a
// captured run is interpretable without consulting flags or source.
func printDeviceConfig(sc experiment.Scale, scaleName string) {
	planes := sc.Planes
	if planes < 1 {
		planes = 1
	}
	pipeline := "on"
	if sc.NoCachePipeline {
		pipeline = "off"
	}
	batching := "off"
	if sc.LockBatch.Enabled {
		batching = fmt.Sprintf("on deadline=%v threshold=%d", sc.LockBatch.Deadline, sc.LockBatch.Threshold)
	}
	fmt.Printf("# device: %d channels x %d chips, %d blocks/chip, %d WLs/block (TLC), %d B pages\n",
		experiment.Channels, experiment.ChipsPerChannel, sc.BlocksPerChip, sc.WLsPerBlock, sc.PageBytes)
	fmt.Printf("# parallelism: planes=%d cache-pipeline=%s queue-depth=32 plock-batching=%s\n",
		planes, pipeline, batching)
}

// printAblation prints the amortization ladder's absolute and
// normalized throughput (cells share the scale's workload volume).
func printAblation(cells []experiment.BatchingCell, csv bool) {
	fmt.Println("=== Amortization ablation: Mobile × secSSD ===")
	base := cells[0].Run.IOPS()
	for _, c := range cells {
		s := c.Run.Report.Stats
		norm := 0.0
		if base > 0 {
			norm = c.Run.IOPS() / base
		}
		if csv {
			fmt.Printf("ablation,%s,%.1f,%.4f,%.4f,%d,%d,%d,%d\n",
				c.Label, c.Run.IOPS(), norm, c.Run.WAF(), s.PLocks, s.PLockBatches, s.PLockBatchedPages, s.BLocks)
			continue
		}
		fmt.Printf("  %-10s IOPS %8.0f  (%.2fx)  WAF %.2f  pLocks %6d  batched %5d pulses / %6d pages  bLocks %4d\n",
			c.Label, c.Run.IOPS(), norm, c.Run.WAF(), s.PLocks, s.PLockBatches, s.PLockBatchedPages, s.BLocks)
	}
	fmt.Println()
}

// attackReport is the -attack-json document: every cell's score plus
// the gate verdict.
type attackReport struct {
	Seed    int64          `json:"seed"`
	Scores  []attack.Score `json:"scores"`
	Verdict attack.Verdict `json:"verdict"`
}

// runAttack executes the adversarial forensics matrix, prints the
// scores, optionally writes the JSON artifact, and returns the gate
// verdict.
func runAttack(seed int64, powerCut uint64, jsonPath string, workers int) (bool, error) {
	var cells []attack.Config
	if powerCut > 0 {
		for _, p := range attack.Policies() {
			cells = append(cells, attack.Config{
				Policy:      p,
				Scenario:    attack.ScenarioPowerCut,
				CutAfterOps: powerCut,
				Seed:        seed,
			})
		}
	} else {
		cells = attack.DefaultCells(seed)
	}
	scores, err := attack.Matrix(cells, workers)
	if err != nil {
		return false, err
	}
	verdict := attack.Verify(scores)

	fmt.Printf("=== Attack matrix: §5.1 adversary vs. every policy (seed %d) ===\n", seed)
	for _, s := range scores {
		extra := ""
		if s.Scenario == string(attack.ScenarioPowerCut) {
			extra = fmt.Sprintf("  cut=%v remounted=%v", s.CutFired, s.Remounted)
			if s.CutFired {
				extra = fmt.Sprintf("  cut=%s remounted=%v", s.CutOp, s.Remounted)
			}
		}
		fmt.Printf("  %-32s recovered %7d / %d B on %2d pages  live=%v  audit open=%d clean=%v%s\n",
			s.Label, s.RecoverableBytes, s.SecretBytes, s.HitPages,
			s.LiveIntact, s.OpenAuditCopies, s.AuditClean, extra)
	}
	if verdict.Pass {
		fmt.Printf("verdict: PASS — %d cells, %d baseline control leaks\n", verdict.Cells, verdict.ControlLeaks)
	} else {
		fmt.Printf("verdict: FAIL — %d cells\n", verdict.Cells)
		for _, f := range verdict.Failures {
			fmt.Printf("  - %s\n", f)
		}
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return false, err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(attackReport{Seed: seed, Scores: scores, Verdict: verdict})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return false, err
		}
		fmt.Printf("attack scores written to %s\n", jsonPath)
	}
	return verdict.Pass, nil
}

var policyOrder = []string{"erSSD", "scrSSD", "secSSD_nobLock", "secSSD"}

func printFig14a(rows []experiment.Fig14Row, csv bool) {
	fmt.Println("=== Figure 14(a): IOPS normalized to the no-sanitization SSD ===")
	printNormTable(rows, csv, "fig14a", func(r experiment.Fig14Row, p string) float64 { return r.IOPS[p] })
	fmt.Println("  paper: erSSD <= 0.04, scrSSD ~0.34 avg, secSSD ~0.945 avg")
	if !csv {
		fmt.Println("  request latency p50/p99 (ms), baseline vs secSSD:")
		for _, r := range rows {
			base, sec := r.Runs["baseline"].Report, r.Runs["secSSD"].Report
			fmt.Printf("  %-12s base %6.1f/%6.1f   secSSD %6.1f/%6.1f\n",
				r.Workload, base.LatencyP50/1000, base.LatencyP99/1000,
				sec.LatencyP50/1000, sec.LatencyP99/1000)
		}
	}
	fmt.Println()
}

func printFig14b(rows []experiment.Fig14Row, csv bool) {
	fmt.Println("=== Figure 14(b): WAF normalized to the no-sanitization SSD ===")
	printNormTable(rows, csv, "fig14b", func(r experiment.Fig14Row, p string) float64 { return r.WAF[p] })
	fmt.Println("  paper: erSSD up to 320x, scrSSD up to 4.41x, secSSD ~1.0x")
	fmt.Println()
}

func printNormTable(rows []experiment.Fig14Row, csv bool, tag string, get func(experiment.Fig14Row, string) float64) {
	if csv {
		for _, r := range rows {
			for _, p := range policyOrder {
				fmt.Printf("%s,%s,%s,%.4f\n", tag, r.Workload, p, get(r, p))
			}
		}
		return
	}
	fmt.Printf("  %-12s", "workload")
	for _, p := range policyOrder {
		fmt.Printf("%16s", p)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("  %-12s", r.Workload)
		for _, p := range policyOrder {
			fmt.Printf("%16.3f", get(r, p))
		}
		fmt.Println()
	}
}

func printFig14c(pts []experiment.Fig14cPoint, csv bool) {
	fmt.Println("=== Figure 14(c): secSSD IOPS vs. fraction of securely-managed data ===")
	byWorkload := map[string][]experiment.Fig14cPoint{}
	var order []string
	for _, p := range pts {
		if _, seen := byWorkload[p.Workload]; !seen {
			order = append(order, p.Workload)
		}
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	for _, w := range order {
		if csv {
			for _, p := range byWorkload[w] {
				fmt.Printf("fig14c,%s,%.2f,%.4f\n", w, p.Fraction, p.NormIOPS)
			}
			continue
		}
		fmt.Printf("  %-12s", w)
		for _, p := range byWorkload[w] {
			fmt.Printf("  %3.0f%%: %.3f", 100*p.Fraction, p.NormIOPS)
		}
		fmt.Println()
	}
	fmt.Println("  paper: at 60% secured data, secSSD within 6.2% of baseline (2.8% avg)")
	fmt.Println()
}

func printHeadline(h experiment.Headline) {
	fmt.Println("=== Headline (§1): secSSD vs. reprogram-based sanitization ===")
	fmt.Printf("  IOPS speedup over scrSSD:      max %.1fx, avg %.1fx   (paper: 4.8x / 2.9x)\n",
		h.IOPSSpeedupMax, h.IOPSSpeedupAvg)
	fmt.Printf("  block-erase reduction:         max %.0f%%, avg %.0f%%     (paper: 79%% / 62%%)\n",
		100*h.EraseReductionMax, 100*h.EraseReductionAvg)
	fmt.Printf("  pLock reduction from bLock:    max %.0f%%, avg %.0f%%     (paper: 57%% / 28%%)\n",
		100*h.PLockReductionMax, 100*h.PLockReductionAvg)
	fmt.Printf("  IOPS gain from bLock:          max %.1f%%, avg %.1f%%   (paper: 5.4%% / 3.1%%)\n",
		100*h.BLockIOPSGainMax, 100*h.BLockIOPSGainAvg)
}
