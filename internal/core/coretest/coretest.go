// Package coretest holds what the facade's tests read a device through
// besides the facade itself.
package coretest

import (
	"repro/internal/core"
	"repro/internal/filesys"
)

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
