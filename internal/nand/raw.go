package nand

import (
	"fmt"

	"repro/internal/sim"
)

// RawPort models the chip's pin-level command interface: command latch,
// address latch, data-in/out cycles and the status register, in the
// style of the standard flash command set (00h/30h read, 80h/10h
// program, 60h/D0h erase, 70h status, FFh reset).
//
// This is the interface the §5.1 attacker uses after de-soldering the
// chip: no FTL, no file system, just electrical command cycles. Because
// Evanesco's access control lives *behind* this interface (the pAP
// majority circuit and the SSL gate the data-out path), a locked page
// still reads all-zero here — which is the paper's whole point.
type RawPort struct {
	chip *Chip

	state    rawState
	cmd      int // latched setup command, -1 when idle (0x00 is a real command)
	addr     []byte
	dataIn   []byte
	dataOut  []byte
	dataPos  int
	status   byte
	statusRq bool
	now      sim.Micros
}

type rawState int

const (
	rawIdle rawState = iota
	rawAddr
	rawDataIn
	rawReady
)

// Standard command bytes.
const (
	CmdReadSetup      = 0x00
	CmdReadConfirm    = 0x30
	CmdProgramSetup   = 0x80
	CmdProgramConfirm = 0x10
	CmdEraseSetup     = 0x60
	CmdEraseConfirm   = 0xD0
	CmdReadStatus     = 0x70
	CmdReset          = 0xFF
	// Vendor extension block: the Evanesco lock commands.
	CmdPLockSetup   = 0xE0
	CmdPLockConfirm = 0xE1
	CmdBLockSetup   = 0xE2
	CmdBLockConfirm = 0xE3
)

// Status register bits.
const (
	// StatusFail is set when the last operation failed (including an
	// uncorrectable read).
	StatusFail = 1 << 0
	// StatusReady is set when the chip can accept a new command.
	StatusReady = 1 << 6
)

// NewRawPort opens a pin-level port on the chip.
func NewRawPort(c *Chip) *RawPort {
	return &RawPort{chip: c, cmd: -1, status: StatusReady}
}

// AdvanceTime moves the port's notion of time (used for retention-aware
// lock evaluation; attackers usually leave it at zero).
func (p *RawPort) AdvanceTime(t sim.Micros) { p.now = t }

// WriteCommand latches a command byte.
func (p *RawPort) WriteCommand(cmd byte) error {
	switch cmd {
	case CmdReset:
		p.reset()
		return nil
	case CmdReadStatus:
		p.statusRq = true
		return nil
	case CmdReadSetup, CmdProgramSetup, CmdEraseSetup, CmdPLockSetup, CmdBLockSetup:
		p.cmd = int(cmd)
		p.state = rawAddr
		p.addr = p.addr[:0]
		p.dataIn = p.dataIn[:0]
		p.statusRq = false
		return nil
	case CmdReadConfirm:
		return p.confirm(CmdReadSetup, p.execRead)
	case CmdProgramConfirm:
		return p.confirm(CmdProgramSetup, p.execProgram)
	case CmdEraseConfirm:
		return p.confirm(CmdEraseSetup, p.execErase)
	case CmdPLockConfirm:
		return p.confirm(CmdPLockSetup, p.execPLock)
	case CmdBLockConfirm:
		return p.confirm(CmdBLockSetup, p.execBLock)
	default:
		return fmt.Errorf("nand: unknown command byte %#02x", cmd)
	}
}

// confirm executes the latched operation. Protocol violations (confirm
// without a matching setup) error immediately; operation outcomes are
// reported both through the status register's fail bit — which is all a
// real bus exposes — and as the return value, for Go callers.
func (p *RawPort) confirm(setup byte, exec func() error) error {
	if p.cmd != int(setup) {
		return fmt.Errorf("nand: confirm without setup %#02x", setup)
	}
	err := exec()
	p.cmd = -1
	p.state = rawReady
	if err != nil {
		p.status = StatusReady | StatusFail
	} else {
		p.status = StatusReady
	}
	return err
}

// WriteAddress latches one address byte. Reads and programs take five
// cycles (two column, three row); erases and block locks take three row
// cycles; page locks take three row cycles too.
func (p *RawPort) WriteAddress(b byte) error {
	if p.state != rawAddr {
		return fmt.Errorf("nand: address cycle outside an address phase")
	}
	p.addr = append(p.addr, b)
	if p.cmd == int(byte(CmdProgramSetup)) && len(p.addr) >= 5 {
		p.state = rawDataIn
	}
	return nil
}

// WriteData latches one payload byte (program flow only).
func (p *RawPort) WriteData(b byte) error {
	if p.state != rawDataIn {
		return fmt.Errorf("nand: data-in cycle outside a program phase")
	}
	p.dataIn = append(p.dataIn, b)
	return nil
}

// ReadData returns the next data-out byte. After a status request it
// returns the status register; after a read it streams the page buffer
// (all zeros for a locked page). Reading past the buffer returns 0xFF,
// like a floating bus.
func (p *RawPort) ReadData() byte {
	if p.statusRq {
		p.statusRq = false
		return p.status
	}
	if p.dataPos < len(p.dataOut) {
		b := p.dataOut[p.dataPos]
		p.dataPos++
		return b
	}
	return 0xFF
}

// ReadPage is a convenience that runs the full 00h-addr-30h cycle and
// streams out n bytes.
func (p *RawPort) ReadPage(a PageAddr, n int) ([]byte, error) {
	if err := p.WriteCommand(CmdReadSetup); err != nil {
		return nil, err
	}
	for _, b := range encodeAddr5(a) {
		if err := p.WriteAddress(b); err != nil {
			return nil, err
		}
	}
	if err := p.WriteCommand(CmdReadConfirm); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = p.ReadData()
	}
	return out, nil
}

// Status runs a 70h cycle and returns the register.
func (p *RawPort) Status() byte {
	p.WriteCommand(CmdReadStatus)
	return p.ReadData()
}

func (p *RawPort) reset() {
	p.state = rawIdle
	p.cmd = -1
	p.addr = p.addr[:0]
	p.dataIn = p.dataIn[:0]
	p.dataOut = nil
	p.dataPos = 0
	p.status = StatusReady
	p.statusRq = false
}

// encodeAddr5 packs a page address into the 5-cycle form (2 column bytes
// always zero — the port reads from column 0 — plus 3 row bytes).
func encodeAddr5(a PageAddr) []byte {
	row := uint32(a.Block)<<12 | uint32(a.Page)&0xFFF
	return []byte{0, 0, byte(row), byte(row >> 8), byte(row >> 16)}
}

func decodeRow(addr []byte) (PageAddr, error) {
	if len(addr) < 3 {
		return PageAddr{}, fmt.Errorf("nand: short row address (%d bytes)", len(addr))
	}
	// Row bytes are the last three address cycles.
	r := addr[len(addr)-3:]
	row := uint32(r[0]) | uint32(r[1])<<8 | uint32(r[2])<<16
	return PageAddr{Block: int(row >> 12), Page: int(row & 0xFFF)}, nil
}

func (p *RawPort) execRead() error {
	a, err := decodeRow(p.addr)
	if err != nil {
		return err
	}
	data, err := p.chip.Read(a, p.now)
	// data aliases the chip's read scratch, but the port streams data-out
	// byte-by-byte across later cycles — latch a copy into the port's own
	// (reused) buffer.
	if data == nil {
		p.dataOut = nil
	} else {
		p.dataOut = append(p.dataOut[:0], data...)
	}
	p.dataPos = 0
	switch err {
	case nil:
		return nil
	case ErrPageLocked, ErrBlockLocked:
		// The data-out path is gated: the attacker sees zeros and no
		// error indication beyond the (optional) fail bit.
		return err
	default:
		p.dataOut = nil
		return err
	}
}

func (p *RawPort) execProgram() error {
	a, err := decodeRow(p.addr[:5])
	if err != nil {
		return err
	}
	data := make([]byte, len(p.dataIn))
	copy(data, p.dataIn)
	_, err = p.chip.Program(a, data, p.now)
	return err
}

func (p *RawPort) execErase() error {
	a, err := decodeRow(p.addr)
	if err != nil {
		return err
	}
	_, err = p.chip.Erase(a.Block, p.now)
	return err
}

func (p *RawPort) execPLock() error {
	a, err := decodeRow(p.addr)
	if err != nil {
		return err
	}
	_, err = p.chip.PLock(a, p.now)
	return err
}

func (p *RawPort) execBLock() error {
	a, err := decodeRow(p.addr)
	if err != nil {
		return err
	}
	_, err = p.chip.BLock(a.Block, p.now)
	return err
}
