// Package vth models the threshold-voltage (Vth) behaviour of 3D NAND
// flash cells: per-state Vth distributions, the Gray data encoding of
// multi-level cells, and the noise processes the paper characterizes on
// real chips — P/E cycling wear, retention loss, program disturb, read
// disturb, one-shot-reprogram (OSR) over-programming, and the
// open-interval effect.
//
// The paper's chip experiments (Figs. 6, 9, 10, 11, 12) are distributional
// statements about cell populations; this package reproduces them with a
// calibrated Gaussian-mixture model. Every probability is computed in
// closed form from Gaussian CDFs; FlagModel.SampleCells draws the
// individual flag cells the chip programs.
package vth

import "fmt"

// CellKind selects how many bits a cell stores.
type CellKind int

const (
	// SLC stores one bit per cell (used for the pAP flag cells).
	SLC CellKind = iota + 1
	// MLC stores two bits per cell.
	MLC
	// TLC stores three bits per cell (the paper's primary target).
	TLC
	// QLC stores four bits per cell.
	QLC
)

// Bits returns the number of bits stored per cell.
func (k CellKind) Bits() int { return int(k) }

// States returns the number of Vth states (2^bits).
func (k CellKind) States() int { return 1 << uint(k) }

func (k CellKind) String() string {
	switch k {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	case QLC:
		return "QLC"
	default:
		return fmt.Sprintf("CellKind(%d)", int(k))
	}
}

// PageKind identifies which of the pages sharing a wordline a bit belongs
// to. LSB is the least-significant-bit page; CSB exists only on TLC+;
// MSB is the most-significant-bit page. For SLC the only page is LSB.
type PageKind int

const (
	LSB PageKind = iota
	CSB
	MSB
	// XSB is the fourth page of a QLC wordline ("extra" significant bit).
	XSB
)

func (p PageKind) String() string {
	switch p {
	case LSB:
		return "LSB"
	case CSB:
		return "CSB"
	case MSB:
		return "MSB"
	case XSB:
		return "XSB"
	default:
		return fmt.Sprintf("PageKind(%d)", int(p))
	}
}

// PagesPerWL returns the page kinds stored on one wordline of the given
// cell kind, ordered by program order (LSB first).
func PagesPerWL(k CellKind) []PageKind {
	switch k {
	case SLC:
		return []PageKind{LSB}
	case MLC:
		return []PageKind{LSB, MSB}
	case TLC:
		return []PageKind{LSB, CSB, MSB}
	case QLC:
		return []PageKind{LSB, CSB, MSB, XSB}
	default:
		panic(fmt.Sprintf("vth: unknown cell kind %d", k))
	}
}

// grayTLC is the per-state bit assignment from the paper's Fig. 2(b),
// listed (MSB, CSB, LSB) for states E, P1..P7:
// 111, 110, 100, 000, 010, 011, 001, 101.
var grayTLC = [8][3]byte{
	{1, 1, 1}, // E
	{1, 1, 0}, // P1
	{1, 0, 0}, // P2
	{0, 0, 0}, // P3
	{0, 1, 0}, // P4
	{0, 1, 1}, // P5
	{0, 0, 1}, // P6
	{1, 0, 1}, // P7
}

// grayMLC is the per-state bit assignment from Fig. 2(a), (MSB, LSB) for
// E, P1, P2, P3: 11, 10, 00, 01.
var grayMLC = [4][2]byte{
	{1, 1}, // E
	{1, 0}, // P1
	{0, 0}, // P2
	{0, 1}, // P3
}

// grayQLC extends the scheme to 16 states with a standard 1-2-6-6 Gray map
// (MSB, XSB wait—order here is MSB, CSB, LSB, XSB is appended last).
var grayQLC = [16][4]byte{
	{1, 1, 1, 1}, {1, 1, 1, 0}, {1, 1, 0, 0}, {1, 0, 0, 0},
	{0, 0, 0, 0}, {0, 1, 0, 0}, {0, 1, 1, 0}, {0, 1, 1, 1},
	{0, 1, 0, 1}, {0, 0, 0, 1}, {0, 0, 1, 1}, {0, 0, 1, 0},
	{1, 0, 1, 0}, {1, 0, 1, 1}, {1, 0, 0, 1}, {1, 1, 0, 1},
}

// BitOf returns the bit (0 or 1) that state s encodes on page p for cell
// kind k. State 0 is the erased state, which encodes 1 on every page.
func BitOf(k CellKind, s int, p PageKind) byte {
	if s < 0 || s >= k.States() {
		panic(fmt.Sprintf("vth: state %d out of range for %v", s, k))
	}
	switch k {
	case SLC:
		if p != LSB {
			panic(fmt.Sprintf("vth: SLC has no %v page", p))
		}
		if s == 0 {
			return 1
		}
		return 0
	case MLC:
		switch p {
		case LSB:
			return grayMLC[s][1]
		case MSB:
			return grayMLC[s][0]
		}
		panic(fmt.Sprintf("vth: MLC has no %v page", p))
	case TLC:
		switch p {
		case LSB:
			return grayTLC[s][2]
		case CSB:
			return grayTLC[s][1]
		case MSB:
			return grayTLC[s][0]
		}
		panic(fmt.Sprintf("vth: TLC has no %v page", p))
	case QLC:
		switch p {
		case LSB:
			return grayQLC[s][2]
		case CSB:
			return grayQLC[s][1]
		case MSB:
			return grayQLC[s][0]
		case XSB:
			return grayQLC[s][3]
		}
	}
	panic(fmt.Sprintf("vth: unknown cell kind %d", k))
}
