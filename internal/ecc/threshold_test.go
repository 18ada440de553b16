package ecc

import "testing"

func TestThresholdModel(t *testing.T) {
	th := NewThreshold(72, 1<<13)
	if !th.Readable(72) {
		t.Fatal("exactly-at-limit should be readable")
	}
	if th.Readable(73) {
		t.Fatal("beyond-limit should be unreadable")
	}
	if th.LimitRBER() != 72.0/8192.0 {
		t.Fatalf("LimitRBER = %v", th.LimitRBER())
	}
	if got := th.NormalizeRBER(72.0 / 8192.0); got != 1.0 {
		t.Fatalf("NormalizeRBER(limit) = %v, want 1.0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative limit: expected panic")
		}
	}()
	NewThreshold(-1, 10)
}
