// Package ecc is the correctability threshold of the emulated flash
// read path. The paper treats the on-chip ECC engine as a black box with
// a correction limit ("ECC limit"): a codeword whose raw bit-error count
// exceeds the limit is unreadable. Threshold is that model; it performs
// no actual correction.
package ecc

import "fmt"

// Threshold is the abstract ECC model the paper's chip experiments use:
// a page is readable iff its raw bit-error count per codeword does not
// exceed the correction limit.
type Threshold struct {
	Limit int // correctable bits per codeword
	Bits  int // codeword length in bits
}

// NewThreshold builds a threshold model correcting limit bits per
// codewordBits-bit codeword.
func NewThreshold(limit, codewordBits int) Threshold {
	if limit < 0 || codewordBits <= 0 {
		panic(fmt.Sprintf("ecc: invalid threshold model limit=%d bits=%d", limit, codewordBits))
	}
	return Threshold{Limit: limit, Bits: codewordBits}
}

// LimitRBER returns the raw bit-error rate at the correction limit; the
// paper normalizes every reported RBER to this value.
func (t Threshold) LimitRBER() float64 { return float64(t.Limit) / float64(t.Bits) }
