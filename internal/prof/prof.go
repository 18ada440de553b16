// Package prof wires the standard runtime/pprof file profiles into the
// cmd tools so performance regressions can be diagnosed without editing
// code: pass -cpuprofile/-memprofile and feed the files to `go tool
// pprof`.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling when cpuPath is non-empty and returns a
// stop function that finalizes the CPU profile and, when memPath is
// non-empty, writes a heap profile. The stop function must run before
// the process exits — including error paths — or the profiles are
// truncated; it is safe to call more than once.
func Start(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
		cpuFile = f
	}
	done := false
	stop := func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			}
		}
	}
	return stop, nil
}
