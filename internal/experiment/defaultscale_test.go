package experiment

import (
	"testing"
	"time"

	"repro/internal/sanitize"
	"repro/internal/workload"
)

// TestDefaultScaleBaselineRuns guards against prefill-convergence
// regressions at the CLI's default scale: the baseline configuration
// must complete a shortened study within seconds.
func TestDefaultScaleBaselineRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale run")
	}
	sc := DefaultScale()
	sc.StudyPages = 5000
	// Wall-clock bounds this long test's runtime; results come from sim.Micros.
	start := time.Now()
	run, err := Execute(workload.MailServer(), sanitize.Baseline(), 1.0, sc)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("IOPS %.0f WAF %.2f in %s", run.IOPS(), run.WAF(), elapsed)
	if elapsed > 2*time.Minute {
		t.Fatalf("baseline default-scale run took %s; prefill likely not converging", elapsed)
	}
}
