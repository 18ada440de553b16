package ecc

import "testing"

func TestThresholdModel(t *testing.T) {
	th := NewThreshold(72, 1<<13)
	if th.LimitRBER() != 72.0/8192.0 {
		t.Fatalf("LimitRBER = %v", th.LimitRBER())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative limit: expected panic")
		}
	}()
	NewThreshold(-1, 10)
}
