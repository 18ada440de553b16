// Command bench is the repository's benchmark: six workloads derived from
// the paper's Fig. 14 grid, end-to-end host wall/CPU/memory and fidelity
// metrics measured with no instrumentation, and host time attributed to
// each package under internal/ from a separate CPU-profiled run.
//
//	bash bench/run.sh                      every workload, -reps passes each
//	bash bench/run.sh -aa                  two interleaved sets, compared
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the one BENCHMARK.json names: one workload, repeated for
// S seconds, one JSON object on the last line of standard output. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		if err := childMain(raw); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(2)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON result line (the BENCHMARK.json form)")
		seed     = flag.Int64("seed", 7, "workload seed (experiment.Scale.Seed)")
		seconds  = flag.Float64("seconds", 10, "with -workload: keep repeating passes until this much host time has gone by")
		layers   = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of CPU-profiled passes")
		reps     = flag.Int("reps", 5, "without -workload: passes per workload")
		aa       = flag.Bool("aa", false, "run two interleaved sets of the same build and fail if any end-to-end metric differs by more than its bound")
		out      = flag.String("out", "", "without -workload: also write the full result as JSON to this file")
	)
	flag.Parse()
	var err error
	switch {
	case *workload != "":
		err = contractRun(*workload, *seed, *seconds, *layers == 1, false, os.Stdout)
	case *aa:
		err = aaRun(*seed, *reps)
	default:
		err = fullRun(*seed, *reps, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// spawnAttack runs the forensic attack matrix in a child and returns the
// checks it failed.
func spawnAttack(seed int64) ([]string, error) {
	res, err := spawn(childSpec{Phase: phaseAttack, Seed: seed})
	return res.AttackFailures, err
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the result BENCHMARK.json's driver reads.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted uint64                    `json:"attempted"`
	Failed    uint64                    `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// contractRun repeats passes of one workload until seconds have gone by
// and prints one result line: the end-to-end metrics, or with layers the
// per-layer metrics. A failed correctness check is reported in the line
// (correct false, failed > 0), not by the exit status.
func contractRun(name string, seed int64, seconds float64, layers, small bool, stdout io.Writer) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var passes []pass
	for start := time.Now(); len(passes) == 0 || time.Since(start).Seconds() < seconds; {
		p, err := runPass(w, seed, layers, small)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	attackMsgs, err := spawnAttack(seed)
	if err != nil {
		return err
	}
	v := check(w, passes, len(attackMsgs) == 0)
	v.Failures = append(v.Failures, attackMsgs...)
	for _, f := range v.Failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	line := contractLine{Correct: len(v.Failures) == 0, Attempted: v.Attempted, Failed: v.Failed, Metrics: map[string]contractMetric{}}
	e2e := endToEnd(w, passes, v)
	if layers {
		probes, err := spawn(childSpec{Phase: phaseProbes, Seed: seed, Small: small})
		if err != nil {
			return err
		}
		for name, val := range perLayer(w, passes, probes.Probes) {
			line.Metrics[name] = contractMetric{val.Median, val.Unit}
		}
		for _, d := range gateDefs {
			line.Metrics[d.Name] = contractMetric{e2e[d.Name].Median, d.Unit}
		}
	} else {
		for _, d := range endToEndDefs {
			line.Metrics[d.Name] = contractMetric{e2e[d.Name].Median, d.Unit}
		}
	}
	return json.NewEncoder(stdout).Encode(line)
}

// measure runs sets × reps end-to-end passes of every workload.
// Repetitions are the outer loop and workloads the inner one, so a slow
// period of a shared host spreads over every workload and both sets.
func measure(seed int64, sets, reps int) ([]map[string][]pass, error) {
	res := make([]map[string][]pass, sets)
	for s := range res {
		res[s] = map[string][]pass{}
	}
	for r := 0; r < reps; r++ {
		for s := range res {
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, "rep %d/%d set %d %s\n", r+1, reps, s, w.Name)
				p, err := runPass(w, seed, false, false)
				if err != nil {
					return nil, err
				}
				res[s][w.Name] = append(res[s][w.Name], p)
			}
		}
	}
	return res, nil
}

// workloadReport is one workload's section of the full output.
type workloadReport struct {
	Why          string
	SimDigest    string
	OpsAttempted uint64
	OpsFailed    uint64
	EndToEnd     map[string]value
	PerLayer     map[string]value
}

type fullReport struct {
	Seed, Reps     int64
	NProc          int
	GoVersion, Rev string
	TotalSeconds   float64
	Failures       []string
	Workloads      map[string]workloadReport
}

// vcsRevision is the commit the binary was built from, when the build
// happened inside a git checkout.
func vcsRevision() string {
	rev, modified := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

// tracedReps is how many passes of the full form carry a CPU-profiled
// child: at 100 Hz one 1.5 s pass is 150 samples, too few for a layer's
// share to repeat within a few points.
const tracedReps = 3

// fullRun measures every workload: reps end-to-end passes, then tracedReps
// more with a CPU-profiled child for the per-layer metrics, the probes and
// the attack matrix once. It prints every metric by name with its unit and
// returns an error if any correctness check failed.
func fullRun(seed int64, reps int, out string) error {
	start := time.Now()
	sets, err := measure(seed, 1, reps)
	if err != nil {
		return err
	}
	probes, err := spawn(childSpec{Phase: phaseProbes, Seed: seed})
	if err != nil {
		return err
	}
	attackMsgs, err := spawnAttack(seed)
	if err != nil {
		return err
	}
	report := fullReport{
		Seed: seed, Reps: int64(reps), NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Rev: vcsRevision(),
		Failures: attackMsgs, Workloads: map[string]workloadReport{},
	}
	for r := 0; r < tracedReps; r++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "traced rep %d/%d %s\n", r+1, tracedReps, w.Name)
			p, err := runPass(w, seed, true, false)
			if err != nil {
				return err
			}
			sets[0][w.Name] = append(sets[0][w.Name], p)
		}
	}
	for _, w := range workloads {
		passes := sets[0][w.Name]
		v := check(w, passes, len(attackMsgs) == 0)
		report.Failures = append(report.Failures, v.Failures...)
		var ownProbes probeResult
		if w.Grid {
			ownProbes = probes.Probes // they do not depend on the workload: reported once
		}
		wr := workloadReport{
			Why: w.Why, SimDigest: simDigest(passes[0].Study), OpsAttempted: v.Attempted, OpsFailed: v.Failed,
			EndToEnd: endToEnd(w, passes, v), PerLayer: perLayer(w, passes, ownProbes),
		}
		report.Workloads[w.Name] = wr
		printWorkload(w, wr, passes[0].Study)
	}
	report.TotalSeconds = time.Since(start).Seconds()
	fmt.Printf("total %.1f s, %d workloads, %d reps, seed %d, nproc %d, %s, rev %s\n",
		report.TotalSeconds, len(workloads), reps, seed, report.NProc, report.GoVersion, report.Rev)
	if out != "" {
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return failuresError(report.Failures)
}

func failuresError(failures []string) error {
	for _, f := range failures {
		fmt.Println("FAIL", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d correctness checks failed", len(failures))
	}
	fmt.Println("all correctness checks passed")
	return nil
}

func printWorkload(w workloadDef, wr workloadReport, study childResult) {
	fmt.Printf("\n== %s: %s\n", w.Name, w.Why)
	fmt.Printf("%-14s %-28s %s   ops_attempted %d ops_failed %d\n", w.Name, "sim_digest", wr.SimDigest, wr.OpsAttempted, wr.OpsFailed)
	line := func(name string, v value) {
		fmt.Printf("%-14s %-28s %14.6g %-5s", w.Name, name, v.Median, v.Unit)
		if v.N > 1 {
			fmt.Printf("  min %.6g max %.6g n %d", v.Min, v.Max, v.N)
		}
		fmt.Println()
	}
	for _, d := range endToEndDefsOf(w) {
		line(d.Name, wr.EndToEnd[d.Name])
	}
	if w.Traced {
		fmt.Printf("%-14s %-28s %d samples, %d beyond the p99\n", w.Name, "tinsec_p99_us", study.TInsecN, study.TInsecBeyond)
	}
	names := make([]string, 0, len(wr.PerLayer))
	for name := range wr.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line(name, wr.PerLayer[name])
	}
}

// aaRun measures two interleaved sets of the same build and compares each
// end-to-end metric's medians: the second may not be worse than the first
// by more than the metric's bound. Every metric is lower-is-better.
func aaRun(seed int64, reps int) error {
	sets, err := measure(seed, 2, reps)
	if err != nil {
		return err
	}
	failures, err := spawnAttack(seed)
	if err != nil {
		return err
	}
	attackOK := len(failures) == 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "median A", "median B", "B vs A", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		// Checked as one sequence, so digests must also agree across sets.
		v := check(w, append(append([]pass(nil), a...), b...), attackOK)
		failures = append(failures, v.Failures...)
		ma, mb := endToEnd(w, a, v), endToEnd(w, b, v)
		for _, d := range endToEndDefsOf(w) {
			x, y := ma[d.Name].Median, mb[d.Name].Median
			rel := 0.0
			if x != 0 {
				rel = (y - x) / x
			} else if y > 0 {
				rel = 1
			}
			verdict := ""
			if rel > d.Bound {
				verdict = "  BREACH"
				failures = append(failures, fmt.Sprintf("%s: %s is %.2f%% worse in set B (bound %.0f%%)", w.Name, d.Name, 100*rel, 100*d.Bound))
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.Name, d.Name, x, y, 100*rel, 100*d.Bound, verdict)
		}
	}
	return failuresError(failures)
}
