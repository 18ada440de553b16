// Package coretest holds the oracle the facade's tests hold a device to:
// the paper's C1/C2 sanitization conditions, checked at the raw chip.
package coretest

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/filesys"
	"repro/internal/ftl"
	"repro/internal/nand"
)

// ErrSanitizationViolated is returned by VerifySanitization when stale
// data is still readable at the chip level.
var ErrSanitizationViolated = errors.New("core: stale secured data is readable on a raw chip")

// VerifySanitization checks the paper's C1/C2 conditions device-wide:
// every physical page that is readable through the raw chip interface
// and contains data must be live in the FTL. Stale (invalid) pages with
// recoverable contents violate sanitization. Baseline devices are
// expected to fail this check after updates or deletes.
func VerifySanitization(d *core.Device) error {
	f := d.SSD().FTL()
	g := d.SSD().Geometry()
	for p := 0; p < g.TotalPages(); p++ {
		ppa := ftl.PPA(p)
		if f.Status(ppa).Live() || f.Status(ppa) == ftl.PageFree {
			continue
		}
		chip, block, page := g.Locate(ppa)
		data, err := d.SSD().Chips()[chip].Read(nand.PageAddr{Block: block, Page: page}, 0)
		if err != nil {
			continue // locked or unreadable: sanitized
		}
		for _, b := range data {
			if b != 0 {
				return fmt.Errorf("%w: physical page %d", ErrSanitizationViolated, p)
			}
		}
	}
	return nil
}

// ReadFile returns a file's contents, padded to whole pages, read
// through the device's logical-to-physical mapping.
func ReadFile(d *core.Device, name string) ([]byte, error) {
	f, ok := d.FS().Lookup(name)
	if !ok {
		return nil, filesys.ErrNotFound
	}
	out := make([]byte, f.Pages()*d.PageBytes())
	for i, lpa := range f.Extents() {
		page, err := d.SSD().ReadLogical(lpa)
		if err != nil {
			return nil, err
		}
		copy(out[i*d.PageBytes():], page)
	}
	return out, nil
}
