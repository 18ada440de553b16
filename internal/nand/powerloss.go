package nand

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// PowerLoss is the panic value a chip throws when the device's armed
// power-cut schedule (fault.CutState) strikes at the start of a
// mutating operation. By the time it is thrown the chip has already
// applied the interrupted op's partial power-loss semantics:
//
//	Program  — the page is consumed (write pointer advanced) and holds
//	           a torn copy of the payload: the front half survives, the
//	           tail is mangled. No OOB metadata was stamped — the FTL
//	           never regained control.
//	PLock    — the one-shot flag pulse did not complete: the majority
//	           circuit still reads the flag enabled, the page stays
//	           readable.
//	PLockWL  — atomic all-or-none, same as an injected batch failure:
//	           every requested flag is left unprogrammed and readable.
//	BLock    — the SSL cells did not reach the disable threshold; the
//	           block stays readable.
//	Erase    — nothing was destroyed: data, pAP flags and SSL state
//	           survive intact (the conservative, attacker-favourable
//	           reading of an interrupted tBERS).
//	Scrub    — the wordline reprogram did not complete; the WL's data
//	           survives intact.
//
// Everything the controller held in RAM is lost with the rail: the
// panic unwinds through the FTL, and ssd.CapturePowerLoss, which
// recovers it, marks the device dead until Remount rebuilds the mapping
// state from the surviving media.
type PowerLoss struct {
	// Op is the interrupted operation.
	Op OpKind
	// Addr locates the interrupted op: the page for page ops, Page = -1
	// for block-granularity ops (Erase, BLock).
	Addr PageAddr
	// At is the simulated time the rail collapsed.
	At sim.Micros
}

func (p PowerLoss) String() string {
	return fmt.Sprintf("nand: power loss during %v at %v (t=%dµs)", p.Op, p.Addr, int64(p.At))
}

// WithPowerCut attaches the device-wide power-cut schedule. Every chip
// of a device shares one CutState so the strike point is a property of
// the device-global op sequence, not of any single chip.
func WithPowerCut(cs *fault.CutState) Option {
	return func(c *Chip) { c.cut = cs }
}

// strike reports whether the armed power-cut schedule fires at the
// start of an op of the given kind. At most one strike fires per armed
// schedule.
func (c *Chip) strike(op fault.CutOp) bool {
	return c.cut != nil && c.cut.Strike(op)
}

// tearPayload applies the torn-write shape of an interrupted program
// pulse: the pulse charged a prefix of the cells before the rail
// collapsed, so the front half of the payload survives and the tail —
// from a deterministically drawn split point — is mangled. Mirrors
// fault.Injector.CorruptTail but draws from the CutState's private
// stream so a cut perturbs no fault schedule.
func (c *Chip) tearPayload(data []byte) {
	if len(data) == 0 {
		return
	}
	half := len(data) / 2
	start := half + int(c.cut.Rand()%uint64(half+1))
	for i := start; i < len(data); i++ {
		data[i] ^= byte(c.cut.Rand() | 1)
	}
}
