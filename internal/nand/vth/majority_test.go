package vth_test

import (
	"testing"

	"repro/internal/nand/vth"
	"repro/internal/nand/vth/vthtest"
)

func TestMajorityCircuit(t *testing.T) {
	f := vth.DefaultFlagModel()
	all := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2}
	if !vthtest.MajorityReadsDisabled(f, all) {
		t.Fatal("all-programmed flag should read disabled")
	}
	split := []float64{2, 2, 2, 2, 0, 0, 0, 0, 0} // 4 programmed of 9
	if vthtest.MajorityReadsDisabled(f, split) {
		t.Fatal("minority-programmed flag should read enabled")
	}
	five := []float64{2, 2, 2, 2, 2, 0, 0, 0, 0}
	if !vthtest.MajorityReadsDisabled(f, five) {
		t.Fatal("5-of-9 programmed flag should read disabled")
	}
}
