package nand

import (
	"bytes"
	"testing"
)

func TestRawPortReadCycle(t *testing.T) {
	c := newTestChip(t)
	payload := []byte("raw interface payload")
	mustProgram(t, c, PageAddr{2, 0}, payload)

	port := NewRawPort(c)
	got, err := port.ReadPage(PageAddr{2, 0}, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("raw read %q, want %q", got, payload)
	}
	if port.Status()&StatusReady == 0 {
		t.Fatal("chip should be ready")
	}
	if port.Status()&StatusFail != 0 {
		t.Fatal("successful read should not set fail")
	}
}

// The paper's security core at the lowest level: a locked page streams
// zeros through the raw pin interface.
func TestRawPortLockedPageStreamsZeros(t *testing.T) {
	c := newTestChip(t)
	secret := []byte("undisclosed location")
	mustProgram(t, c, PageAddr{1, 0}, secret)
	mustPLock(t, c, PageAddr{1, 0})

	port := NewRawPort(c)
	got, err := port.ReadPage(PageAddr{1, 0}, len(secret))
	if err == nil {
		t.Fatal("expected the locked-page error on the internal path")
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("raw port leaked locked data")
		}
	}
}

func TestRawPortProgramEraseCycle(t *testing.T) {
	c := newTestChip(t)
	port := NewRawPort(c)

	// 80h + 5 addr + data-in + 10h.
	if err := port.WriteCommand(CmdProgramSetup); err != nil {
		t.Fatal(err)
	}
	for _, b := range encodeAddr5(PageAddr{0, 0}) {
		if err := port.WriteAddress(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []byte("pin-level write") {
		if err := port.WriteData(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := port.WriteCommand(CmdProgramConfirm); err != nil {
		t.Fatal(err)
	}
	if port.Status()&StatusFail != 0 {
		t.Fatal("program reported failure")
	}
	got, _ := port.ReadPage(PageAddr{0, 0}, 15)
	if !bytes.Equal(got, []byte("pin-level write")) {
		t.Fatalf("read back %q", got)
	}

	// 60h + 3 row bytes + D0h.
	if err := port.WriteCommand(CmdEraseSetup); err != nil {
		t.Fatal(err)
	}
	addr := encodeAddr5(PageAddr{0, 0})
	for _, b := range addr[2:] {
		port.WriteAddress(b)
	}
	if err := port.WriteCommand(CmdEraseConfirm); err != nil {
		t.Fatal(err)
	}
	res, err := c.Read(PageAddr{0, 0}, 0)
	if err != nil || res != nil {
		t.Fatal("raw erase did not clear the page")
	}
}

func TestRawPortVendorLockCommands(t *testing.T) {
	c := newTestChip(t)
	mustProgram(t, c, PageAddr{0, 0}, []byte("to lock"))
	port := NewRawPort(c)

	// E0h + row + E1h: pLock.
	port.WriteCommand(CmdPLockSetup)
	for _, b := range encodeAddr5(PageAddr{0, 0})[2:] {
		port.WriteAddress(b)
	}
	if err := port.WriteCommand(CmdPLockConfirm); err != nil {
		t.Fatal(err)
	}
	if !pageLocked(t, c, PageAddr{0, 0}) {
		t.Fatal("vendor pLock command did not lock")
	}

	// E2h + row + E3h: bLock.
	port.WriteCommand(CmdBLockSetup)
	for _, b := range encodeAddr5(PageAddr{3, 0})[2:] {
		port.WriteAddress(b)
	}
	if err := port.WriteCommand(CmdBLockConfirm); err != nil {
		t.Fatal(err)
	}
	if !blockLocked(t, c, 3) {
		t.Fatal("vendor bLock command did not lock")
	}
}

func TestRawPortProtocolErrors(t *testing.T) {
	c := newTestChip(t)
	port := NewRawPort(c)
	if err := port.WriteCommand(0x42); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := port.WriteAddress(1); err == nil {
		t.Fatal("address cycle without setup accepted")
	}
	if err := port.WriteData(1); err == nil {
		t.Fatal("data cycle without program setup accepted")
	}
	if err := port.WriteCommand(CmdReadConfirm); err == nil {
		t.Fatal("confirm without setup accepted")
	}
	// Reads past the buffer float high.
	if b := port.ReadData(); b != 0xFF {
		t.Fatalf("floating bus read %#02x, want 0xFF", b)
	}
	// Reset recovers the state machine.
	port.WriteCommand(CmdReadSetup)
	port.WriteCommand(CmdReset)
	if err := port.WriteAddress(0); err == nil {
		t.Fatal("reset should clear the address phase")
	}
	// Short address is rejected at confirm time.
	port.WriteCommand(CmdEraseSetup)
	port.WriteAddress(0)
	if err := port.WriteCommand(CmdEraseConfirm); err == nil {
		t.Fatal("short row address accepted")
	}
}

func TestRawPortStatusFailBit(t *testing.T) {
	c := newTestChip(t)
	port := NewRawPort(c)
	// Program out of order: page 3 of an empty block.
	port.WriteCommand(CmdProgramSetup)
	for _, b := range encodeAddr5(PageAddr{0, 3}) {
		port.WriteAddress(b)
	}
	port.WriteData(0xAA)
	port.WriteCommand(CmdProgramConfirm)
	if port.Status()&StatusFail == 0 {
		t.Fatal("out-of-order program must set the fail bit")
	}
}

func TestAddrRoundTrip(t *testing.T) {
	for _, a := range []PageAddr{{0, 0}, {7, 11}, {427, 575}} {
		enc := encodeAddr5(a)
		got, err := decodeRow(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("addr round trip %v -> %v", a, got)
		}
	}
}
