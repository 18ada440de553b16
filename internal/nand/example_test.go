package nand_test

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/nand/vth"
)

// Example shows the chip-level Evanesco flow: program, lock, and the
// all-zero read that follows.
func Example() {
	chip, err := nand.New(nand.Geometry{
		Blocks:          4,
		WLsPerBlock:     4,
		CellKind:        vth.TLC,
		PageBytes:       4096,
		EnduranceCycles: 1000,
	})
	if err != nil {
		panic(err)
	}
	addr := nand.PageAddr{Block: 0, Page: 0}
	if _, err := chip.Program(addr, []byte("delete me"), 0); err != nil {
		panic(err)
	}
	if _, err := chip.PLock(addr, 0); err != nil {
		panic(err)
	}
	data, err := chip.Read(addr, 0)
	fmt.Printf("locked read error: %v\n", err == nand.ErrPageLocked)
	fmt.Printf("data bytes all zero: %v\n", allZero(data))

	// Only an erase re-enables the page — and it destroys the data first.
	if _, err := chip.Erase(0, 0); err != nil {
		panic(err)
	}
	locked, err := chip.IsPageLocked(addr, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("locked after erase: %v\n", locked)
	// Output:
	// locked read error: true
	// data bytes all zero: true
	// locked after erase: false
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
