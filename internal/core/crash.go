package core

import (
	"repro/internal/fault"
	"repro/internal/filesys"
	"repro/internal/nand"
)

// Crash and recovery facade: arm a deterministic power cut, run workload
// until it fires, remount. See internal/ssd/remount.go for the device
// semantics and internal/nand/powerloss.go for what each interrupted
// operation leaves on the media.

// ArmPowerCut schedules a deterministic power loss on the device: the
// cut fires on the spec.AfterOps-th matching chip operation. Wrap the
// workload in RunUntilPowerLoss to observe it.
func (d *Device) ArmPowerCut(spec fault.CutSpec) error { return d.ssd.ArmPowerCut(spec) }

// RunUntilPowerLoss runs fn, catching the armed power cut if it fires.
// It returns the loss record (nil if fn completed without a cut) and
// fn's error. After a loss the device rejects I/O until Remount.
func (d *Device) RunUntilPowerLoss(fn func() error) (*nand.PowerLoss, error) {
	return d.ssd.CapturePowerLoss(fn)
}

// Remount models the post-crash reboot of the whole stack: the SSD
// rebuilds its FTL from the surviving media (re-running the sanitization
// policy over stale copies the crash orphaned), and the file-system
// layer comes back empty — like a real FS whose metadata journal has not
// been replayed yet. Callers modeling journal recovery re-create files
// and re-issue the trims of completed deletes themselves (see
// internal/attack's replay step). Remount on a healthy device is legal
// and leaves media state unchanged.
func (d *Device) Remount() error {
	if err := d.ssd.Remount(0); err != nil {
		return err
	}
	fs, err := filesys.New(d.ssd, int64(d.ssd.LogicalPages()), d.PageBytes())
	if err != nil {
		return err
	}
	d.fs = fs
	return nil
}
