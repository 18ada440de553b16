// Package blockio defines the host-side block I/O interface of SecureSSD:
// read/write/trim requests carrying the paper's extended security flag
// (REQ_OP_INSEC_WRITE, §6), the in-memory trace a workload recording
// hands to the replayer, and the spare-area stamp a program carries from
// the FTL down to the chip.
package blockio

import "fmt"

// Op is the request type.
type Op uint8

const (
	// OpRead reads Pages logical pages starting at LPA.
	OpRead Op = iota
	// OpWrite writes Pages logical pages starting at LPA.
	OpWrite
	// OpTrim invalidates Pages logical pages starting at LPA (the file
	// system issues it when deleting a file).
	OpTrim
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTrim:
		return "trim"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Request is one host block-I/O request in logical-page units.
type Request struct {
	Op    Op
	LPA   int64 // first logical page
	Pages int32 // request length in pages
	// Insecure mirrors REQ_OP_INSEC_WRITE: the data needs no sanitization
	// guarantee. SecureSSD treats all writes as security-sensitive unless
	// this flag is set (backward compatibility, §6).
	Insecure bool
	// FileID annotates the request with the owning file for the VerTrace
	// data-versioning study (0 = unannotated).
	FileID uint64
	// Data optionally carries the write payload, PageBytes per page. It
	// is used by applications storing real content; workload traces are
	// timing-only and do not serialize it.
	Data []byte
}

// PageData returns the payload slice for the i-th page of the request,
// or nil when the request carries no data. A short final slice is
// returned as-is.
func (r Request) PageData(i int) []byte {
	if r.Data == nil || r.Pages <= 0 {
		return nil
	}
	per := len(r.Data) / int(r.Pages)
	if per == 0 {
		return nil
	}
	lo := i * per
	if lo >= len(r.Data) {
		return nil
	}
	hi := lo + per
	if hi > len(r.Data) {
		hi = len(r.Data)
	}
	return r.Data[lo:hi]
}

// Validate reports whether the request is well-formed.
func (r Request) Validate() error {
	if r.Op > OpTrim {
		return fmt.Errorf("blockio: unknown op %d", r.Op)
	}
	if r.LPA < 0 || r.Pages <= 0 {
		return fmt.Errorf("blockio: bad extent lpa=%d pages=%d", r.LPA, r.Pages)
	}
	return nil
}

func (r Request) String() string {
	sec := "sec"
	if r.Insecure {
		sec = "insec"
	}
	return fmt.Sprintf("%s lpa=%d n=%d %s file=%d", r.Op, r.LPA, r.Pages, sec, r.FileID)
}

// Trace is a named request sequence with its logical page size.
type Trace struct {
	Name      string
	PageBytes int
	Requests  []Request
}

// Stamp is what a controller writes into a page's out-of-band (spare)
// area alongside the payload: the logical page the payload belongs to, a
// device-wide monotone write sequence number, and the request's security
// class. Real FTLs persist exactly this so a crash can rebuild the mapping
// table from a media scan; the remount path (ftl.Restore) keeps the
// highest-sequence readable copy of each LPA as live and re-sanitizes the
// rest. The FTL builds it, the chip stores it, the remount scan reads it
// back; whether a page carries one at all is said beside it.
type Stamp struct {
	// LPA is the logical page the payload belongs to.
	LPA int64
	// Seq is the device-wide monotone write sequence number; among
	// surviving copies of one LPA the highest Seq wins at remount.
	Seq uint64
	// Secure marks the payload as secured data (written with the
	// paper's secure-deletion flag).
	Secure bool
}
