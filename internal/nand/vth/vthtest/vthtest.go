// Package vthtest holds the pAP flag's k-cell majority circuit, counted
// cell by cell. The chip reads a flag through its median cell instead
// (see nand's papFlag); this is the reference the tests of vth, nand and
// chipchar check that reading, and the sampled cells, against.
package vthtest

import "repro/internal/nand/vth"

// MajorityReadsDisabled reports whether a k-cell majority circuit reads
// the flag as disabled, given the sampled cell Vth values: more than
// half of them sense above f.ReadRef.
func MajorityReadsDisabled(f vth.FlagModel, vths []float64) bool {
	programmed := 0
	for _, v := range vths {
		if v > f.ReadRef {
			programmed++
		}
	}
	return programmed*2 > len(vths)
}
