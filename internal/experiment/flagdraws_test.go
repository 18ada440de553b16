package experiment

import (
	"testing"

	"repro/internal/nand/nandtest"
	"repro/internal/sanitize"
	"repro/internal/workload"
)

// TestExecuteDefersFlagDraws keeps the pLock's flag cells off a figure
// run's hot path: a secSSD cell locks pages on every chip, but nothing in
// it reads a locked page's vote, so no chip draws a single flag. A change
// that senses locked pages during a run fails here.
func TestExecuteDefersFlagDraws(t *testing.T) {
	emptyPool()
	if _, err := Execute(workload.MailServer(), sanitize.SecSSD(), 1, SmallScale()); err != nil {
		t.Fatal(err)
	}
	cell := take()
	if cell.dev == nil {
		t.Fatal("the cell retired no device")
	}
	var locks uint64
	for i, c := range cell.dev.Chips() {
		programmed, drawn := nandtest.FlagCounts(c)
		locks += programmed
		if drawn != 0 {
			t.Errorf("chip %d drew %d of its %d pAP flags during the run, want 0", i, drawn, programmed)
		}
	}
	if locks == 0 {
		t.Fatal("the secSSD cell programmed no pAP flag: nothing was tested")
	}
	t.Logf("%d pAP flags programmed on %d chips", locks, len(cell.dev.Chips()))
}
