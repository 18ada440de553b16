// Deterministic power-loss events. A CutState is shared by every chip
// of one device; when armed it counts mutating chip operations and
// "strikes" at the start of the N-th counted op, simulating the supply
// rail collapsing mid-pulse. The struck chip applies the documented
// partial-op semantics for the interrupted operation (see
// internal/nand) and unwinds with a typed panic; everything the
// controller held in RAM — mapping tables, lock queues, pending-erase
// lists — is lost and must be rebuilt by the remount path.
//
// Determinism contract: the strike point is a pure function of the arm
// spec and the op sequence. No wall clock, no global RNG; the partial
// state of the interrupted op draws from the CutState's own splitmix64
// counter, so a cut at op N always tears the same bits.
package fault

// CutOp selects which chip operations a power-cut schedule counts.
// CutAny counts every mutating operation; the narrower selectors let a
// test land the cut inside one specific pulse kind (mid-pLock-batch,
// mid-bLock seal, mid-erase, ...).
type CutOp uint8

const (
	// CutAny counts every mutating chip op.
	CutAny CutOp = iota
	// CutProgram counts page program pulses (including copyback
	// programs and multi-plane group members).
	CutProgram
	// CutErase counts block erases.
	CutErase
	// CutPLock counts single-page pLock pulses.
	CutPLock
	// CutPLockBatch counts coalesced wordline pLock pulses (PLockWL).
	CutPLockBatch
	// CutBLock counts bLock (SSL disable) pulses.
	CutBLock
	// CutScrub counts scrub reprogram pulses.
	CutScrub
)

// String names the selector for reports and error text.
func (o CutOp) String() string {
	switch o {
	case CutAny:
		return "any"
	case CutProgram:
		return "program"
	case CutErase:
		return "erase"
	case CutPLock:
		return "pLock"
	case CutPLockBatch:
		return "pLockBatch"
	case CutBLock:
		return "bLock"
	case CutScrub:
		return "scrub"
	}
	return "unknown"
}

// CutSpec schedules one deterministic power loss: the supply rail
// collapses at the start of the AfterOps-th counted operation (1-based)
// following Arm. The zero spec never strikes.
type CutSpec struct {
	// AfterOps is the 1-based index of the counted op that gets cut.
	// Zero disables the schedule.
	AfterOps uint64 `json:"after_ops"`
	// Op filters which operations count. CutAny counts all mutating
	// ops.
	Op CutOp `json:"op"`
}

// Armed reports whether the spec schedules a strike at all.
func (s CutSpec) Armed() bool { return s.AfterOps > 0 }

// CutState is the device-wide power-cut schedule. One instance is
// shared by every chip of a device (chip ops are serialized by the
// device model, so no locking is needed). It is re-armable: a remounted
// device can schedule a second cut.
type CutState struct {
	spec   CutSpec
	count  uint64
	struck bool
	rng    uint64
}

// NewCutState returns a disarmed schedule.
func NewCutState() *CutState { return &CutState{} }

// Arm installs a new schedule and resets the op counter. Arming with a
// zero spec disarms.
func (cs *CutState) Arm(spec CutSpec) {
	cs.spec = spec
	cs.count = 0
	cs.struck = false
}

// Armed reports whether a strike is still pending: nand and ssd take
// their one-page-at-a-time copyback path while it is.
func (cs *CutState) Armed() bool { return cs != nil && !cs.struck && cs.spec.Armed() }

// Strike is called by a chip at the start of each mutating operation.
// It reports true exactly once per armed schedule: at the start of the
// AfterOps-th counted op. The caller must then apply the op's partial
// power-loss semantics and unwind.
func (cs *CutState) Strike(op CutOp) bool {
	if cs == nil || cs.struck || !cs.spec.Armed() {
		return false
	}
	if cs.spec.Op != CutAny && cs.spec.Op != op {
		return false
	}
	cs.count++
	if cs.count < cs.spec.AfterOps {
		return false
	}
	cs.struck = true
	return true
}

// Rand draws one deterministic 64-bit value for mangling the partial
// state of the interrupted op (splitmix64 over a private counter).
// Independent of any Injector stream so a cut perturbs no fault
// schedule.
func (cs *CutState) Rand() uint64 {
	cs.rng += 0x9E3779B97F4A7C15
	return mix64(cs.rng)
}
