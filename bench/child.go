package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/attack"
)

// The harness re-executes its own binary once per (workload, phase, pass)
// so that CPU time, peak RSS and bytes allocated belong to one workload,
// and once each for the probes and the attack matrix.
// The spec travels in this environment variable, the result comes back as
// one JSON object on the child's standard output.
const childEnv = "SECSSD_BENCH_CHILD"

// minSetupNs is how long a setup child keeps repeating its cell set.
const minSetupNs = int64(time.Second)

// childResult is what one child process measured.
type childResult struct {
	runResult
	// SetupNs holds one duration per repetition of the cell set (setup
	// phase only).
	SetupNs []int64
	// AllocBytes is runtime.MemStats.TotalAlloc at exit.
	AllocBytes uint64
	// Samples maps layer name to CPU-profile samples (profiled runs only).
	Samples  map[string]int64
	PeriodNs int64
	// Probes and AttackFailures are the results of those two phases.
	Probes         probeResult
	AttackFailures []string
	// CPUNs (user + system) and MaxRSSKB are filled in by the parent from
	// the child's rusage. Linux starts an exec'd child's maximum RSS at the
	// parent's RSS, so the parent stays small: everything that allocates
	// (cells, probes, the attack matrix) runs in a child.
	CPUNs    int64
	MaxRSSKB int64
}

// childMain runs the spec found in childEnv and prints the result.
func childMain(raw string) error {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	var res childResult
	var err error
	switch spec.Phase {
	case phaseProbes:
		res.Probes, err = runProbes(spec.Seed, spec.Small)
	case phaseAttack:
		res.AttackFailures = attackFailures(spec.Seed)
	default:
		err = res.runCellPhase(spec)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runCellPhase runs a study, twin or setup phase of spec's workload, under
// a CPU profile if the spec asks for one.
func (res *childResult) runCellPhase(spec childSpec) error {
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	var prof bytes.Buffer
	if spec.Profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	if spec.Phase == phaseSetup {
		var total int64
		for total < minSetupNs {
			ns := runCells(w, spec).WallNs
			res.SetupNs = append(res.SetupNs, ns)
			total += ns
			if spec.Small || ns == 0 {
				break
			}
		}
	} else {
		res.runResult = runCells(w, spec)
	}
	if spec.Profile {
		pprof.StopCPUProfile()
		p, err := decodeProfile(prof.Bytes())
		if err != nil {
			return err
		}
		res.Samples, res.PeriodNs = attribute(p), p.PeriodNs
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.AllocBytes = ms.TotalAlloc
	return nil
}

// spawn runs spec in a child process and waits for it.
func spawn(spec childSpec) (childResult, error) {
	var res childResult
	raw, err := json.Marshal(spec)
	if err != nil {
		return res, err
	}
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s %s child: %w", spec.Workload, spec.Phase, err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("%s %s child output: %w", spec.Workload, spec.Phase, err)
	}
	ps := cmd.ProcessState
	res.CPUNs = (ps.UserTime() + ps.SystemTime()).Nanoseconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		res.MaxRSSKB = int64(ru.Maxrss)
	}
	return res, nil
}

// attackFailures runs the forensic attack matrix: zero recoverable bytes
// for every sanitizer while the baseline control leaks.
func attackFailures(seed int64) []string {
	scores, err := attack.Matrix(attack.DefaultCells(seed), 1)
	if err != nil {
		return []string{"attack matrix: " + err.Error()}
	}
	var msgs []string
	for _, f := range attack.Verify(scores).Failures {
		msgs = append(msgs, "attack matrix: "+f)
	}
	return msgs
}
