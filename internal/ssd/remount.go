// Power loss and remount: the device-level half of the crash-consistency
// model. ArmPowerCut schedules a cut on the shared fault.CutState; the
// struck chip panics with nand.PowerLoss mid-operation, CapturePowerLoss
// turns that panic into a value and marks the device dead, and Remount
// rebuilds a working FTL from whatever the media still holds (the
// boot-time scan + ftl.Restore), re-running the sanitization policy over
// every copy the crash left stale.

package ssd

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/sim"
)

// ErrPowerLost rejects host requests submitted after a power cut and
// before Remount: the controller is down.
var ErrPowerLost = errors.New("ssd: power lost, remount required")

// ArmPowerCut schedules a deterministic power loss: the cut fires on the
// spec.AfterOps-th matching chip operation device-wide (see
// fault.CutSpec), interrupting it per the partial-write semantics
// documented in internal/nand. Wrap the workload in CapturePowerLoss to
// observe the cut, then Remount to recover. Re-arming after a remount
// schedules the next cut.
func (s *SSD) ArmPowerCut(spec fault.CutSpec) error {
	if !spec.Armed() {
		return fmt.Errorf("ssd: power-cut spec needs AfterOps > 0")
	}
	s.cut.Arm(spec)
	return nil
}

// CapturePowerLoss runs fn, converting a nand.PowerLoss panic — an armed
// cut firing mid-operation — into a returned value and marking the
// device dead (Submit returns ErrPowerLost until Remount). Any other
// panic, and fn's ordinary error, pass through untouched. Returns
// (nil, fn's error) when no cut fired.
func (s *SSD) CapturePowerLoss(fn func() error) (loss *nand.PowerLoss, err error) {
	defer func() {
		if r := recover(); r != nil {
			pl, ok := r.(nand.PowerLoss)
			if !ok {
				panic(r)
			}
			s.dead = true
			loss = &pl
			err = nil
		}
	}()
	return nil, fn()
}

// Remount models the post-crash boot: scan every block's surviving media
// state (write pointers, lock flags, payload residue, spare-area stamps)
// and hand it to ftl.Restore, which rebuilds the mapping tables and
// re-runs the recovery ladder. The old FTL — mapping state, stats, file
// annotations — is discarded wholesale, exactly as a real controller's
// RAM would be. Recovery work is issued on the device timelines starting
// at `at` (clamped up to the pre-cut makespan), and the closed-loop
// window restarts there. Remount on a healthy device is legal and
// idempotent: a second remount finds only the state the first one left.
//
// To keep audit continuity across the crash, build the device with a
// trace collector: physical page ids are stable, so T_insecure windows
// opened before the cut close when the recovery pass destroys the data.
func (s *SSD) Remount(at sim.Micros) error {
	if at < s.makespan {
		at = s.makespan
	}
	scan := ftl.MediaScan{
		Blocks: make([]ftl.BlockScan, s.geo.TotalBlocks()),
		Pages:  make([]ftl.PageScan, s.geo.TotalPages()),
	}
	for block := 0; block < s.geo.TotalBlocks(); block++ {
		chip := s.chips[s.geo.ChipOfBlock(block)]
		b := s.geo.BlockInChip(block)
		locked, err := chip.IsBlockLocked(b, at)
		if err != nil {
			return fmt.Errorf("ssd: remount scan block %d: %w", block, err)
		}
		scan.Blocks[block] = ftl.BlockScan{WritePtr: chip.WritePointer(b), Locked: locked}
		first := int(s.geo.FirstPPA(block))
		for pg := 0; pg < s.geo.PagesPerBlock; pg++ {
			pr, err := chip.ProbePage(nand.PageAddr{Block: b, Page: pg}, at)
			if err != nil {
				return fmt.Errorf("ssd: remount scan page %d of block %d: %w", pg, block, err)
			}
			scan.Pages[first+pg] = ftl.PageScan(pr)
		}
	}
	f, err := ftl.Restore(s.ftlConfig(), s, s.cfg.Policy, scan, at)
	if err != nil {
		return err
	}
	s.ftl = f
	s.dead = false
	for i := range s.window {
		s.window[i] = at
	}
	s.wIdx = 0
	if at > s.makespan {
		s.makespan = at
	}
	return nil
}
