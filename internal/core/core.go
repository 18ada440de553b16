// Package core is the public facade of the Evanesco reproduction: it
// assembles the full SecureSSD stack — Evanesco-enabled NAND chips, the
// lock-manager FTL, a file layer with the paper's O_INSEC interface — and
// exposes the operations a downstream user needs:
//
//	dev, _ := core.New(core.Compact(sanitize.SecSSD(), 1))
//	dev.WriteFile("medical.db", data, core.Secure)
//	dev.DeleteFile("medical.db")               // pLock/bLock fire here
//	dev.ForensicScan([]byte("patient"))        // -> no findings
//
// plus a raw-chip forensic scan (the §5.1 threat model), retention time
// travel to demonstrate multi-year lock durability and a power-cut
// facade. Tests check the paper's C1/C2 sanitization conditions with
// ftltest.ReadableStale.
package core

import (
	"bytes"

	"repro/internal/blockio"
	"repro/internal/filesys"
	"repro/internal/ftl"
	"repro/internal/sanitize"
	"repro/internal/ssd"
)

// SecurityMode selects a file's sanitization requirement.
type SecurityMode int

const (
	// Secure files are sanitized on delete/update (the device default).
	Secure SecurityMode = iota
	// Insecure files opt out via O_INSEC for performance.
	Insecure
)

// Compact returns the compact SecureSSD that the attack matrix and tests
// build: 2×2 chips of 32 blocks × 16 TLC wordlines with 4-KiB pages
// (48 MiB raw), 20 % over-provisioning and GC at two free blocks per
// chip. A nil policy selects secSSD; a zero seed is ssd's default. Set
// any further field (Fault, Trace, LockBatch, the geometry) on the
// result before New; ssd.DefaultConfig is the paper's 32-GiB device.
func Compact(policy ftl.Policy, seed int64) ssd.Config {
	if policy == nil {
		policy = sanitize.SecSSD()
	}
	cfg := ssd.DefaultConfig(policy)
	cfg.Channels, cfg.ChipsPerChannel = 2, 2
	cfg.Chip.Blocks, cfg.Chip.WLsPerBlock, cfg.Chip.PageBytes = 32, 16, 4096
	cfg.OverProvision = 0.20
	cfg.GCFreeBlocksLow = 2
	cfg.Seed = seed
	return cfg
}

// Device is an assembled SecureSSD with its file layer.
type Device struct {
	ssd *ssd.SSD
	fs  *filesys.FS
}

// New assembles the stack on the device cfg describes.
func New(cfg ssd.Config) (*Device, error) {
	dev, err := ssd.New(cfg)
	if err != nil {
		return nil, err
	}
	fs, err := filesys.New(dev, int64(dev.LogicalPages()), cfg.Chip.PageBytes)
	if err != nil {
		return nil, err
	}
	return &Device{ssd: dev, fs: fs}, nil
}

// SSD exposes the device model (stats, chips, FTL).
func (d *Device) SSD() *ssd.SSD { return d.ssd }

// FS exposes the file layer.
func (d *Device) FS() *filesys.FS { return d.fs }

// PageBytes returns the logical page size.
func (d *Device) PageBytes() int { return d.ssd.Geometry().PageBytes }

// WriteFile creates (or replaces) a file with the given contents.
func (d *Device) WriteFile(name string, data []byte, mode SecurityMode) error {
	if f, ok := d.fs.Lookup(name); ok {
		if err := d.fs.Delete(f); err != nil {
			return err
		}
	}
	var flags filesys.OpenFlag
	if mode == Insecure {
		flags |= filesys.OInsec
	}
	f, err := d.fs.Create(name, flags)
	if err != nil {
		return err
	}
	return d.fs.AppendData(f, data)
}

// DeleteFile securely deletes a file: unlink, trim, and — for secure
// files on an Evanesco device — immediate pLock/bLock of every stale
// physical page before the call returns.
func (d *Device) DeleteFile(name string) error {
	f, ok := d.fs.Lookup(name)
	if !ok {
		return filesys.ErrNotFound
	}
	return d.fs.Delete(f)
}

// AdvanceRetention ages every chip by the given number of days,
// exercising flag/SSL charge loss (locks must hold for 5 years).
func (d *Device) AdvanceRetention(days float64) {
	for _, c := range d.ssd.Chips() {
		c.AdvanceDays(days)
	}
}

// Sync drains any deferred sanitization work: with a positive lock-batch
// deadline, queued pLocks may ride across requests, and Sync is the
// barrier that pulses them all. A no-op in every other configuration.
func (d *Device) Sync() { d.ssd.FlushLocks() }

// Finding is one forensic hit: recovered content at a physical location.
type Finding struct {
	Chip, Block, Page int
}

// ForensicScan plays the §5.1 attacker: it dumps every physical page of
// every chip through the raw interface and reports where needle appears.
// On an Evanesco device, deleted secure data never shows up — locked
// pages read all-zero. An empty needle finds nothing.
func (d *Device) ForensicScan(needle []byte) []Finding {
	if len(needle) == 0 {
		return nil
	}
	var hits []Finding
	for ci, chip := range d.ssd.Chips() {
		geo := chip.Geometry()
		for b := 0; b < geo.Blocks; b++ {
			for p, data := range chip.ForensicDump(b, 0) {
				if bytes.Contains(data, needle) {
					hits = append(hits, Finding{Chip: ci, Block: b, Page: p})
				}
			}
		}
	}
	return hits
}

// Churn writes pseudo-random secure traffic to force GC activity; the
// attack matrix and tests use it to reach steady state. To avoid clobbering
// files (which the file layer allocates from the bottom of the logical
// space), churn targets the upper half.
func (d *Device) Churn(requests int, seed int64) error {
	logical := int64(d.ssd.LogicalPages())
	span := logical / 2
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i < requests; i++ {
		state = state*2862933555777941757 + 3037000493
		lpa := int64(state>>17) % span
		if lpa < 0 {
			lpa = -lpa
		}
		lpa += logical - span
		if _, err := d.ssd.Submit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1}); err != nil {
			return err
		}
	}
	return nil
}
