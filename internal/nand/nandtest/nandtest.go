// Package nandtest reads the storage a chip allocates on first use, for
// the tests outside package nand that guard how that storage is handed
// from one device to the next. It reads the chip's unexported fields by
// reflection, as adopttest.Diff does, so the chip needs no accessor that
// only tests call; package nand's own tests use the method of the same
// name in its export_test.go.
package nandtest

import (
	"reflect"

	"repro/internal/nand"
)

// LazyState reports how much on-first-use state c holds: blocks with a
// payload store, flag-arena chunks that slots have been handed out from,
// and chunks held in all (a chip built by nand.NewFrom starts with its
// donor's, zeroed and unused).
func LazyState(c *nand.Chip) (payloadStores, flagChunksUsed, flagChunksHeld int) {
	v := reflect.ValueOf(c).Elem()
	blocks := v.FieldByName("blocks")
	for i := range blocks.Len() {
		if !blocks.Index(i).FieldByName("data").IsNil() {
			payloadStores++
		}
	}
	chunks := v.FieldByName("flagChunks")
	if flagChunksHeld = chunks.Len(); flagChunksHeld > 0 {
		perChunk := chunks.Index(0).Len()
		flagChunksUsed = (int(v.FieldByName("flagSlots").Uint()) + perChunk - 1) / perChunk
	}
	return payloadStores, flagChunksUsed, flagChunksHeld
}

// FlagCounts reports how many pAP flags c has programmed and how many of
// them it has drawn the cells of: a flag is drawn when something first
// reads a locked page's vote, so drawn stays 0 on a run that never senses
// a locked page.
func FlagCounts(c *nand.Chip) (programmed, drawn uint64) {
	v := reflect.ValueOf(c).Elem()
	return v.FieldByName("flagsProgrammed").Uint(), v.FieldByName("flagsDrawn").Uint()
}
