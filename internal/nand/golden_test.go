package nand

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blockio"
	"repro/internal/fault"
	"repro/internal/nand/vth"
	"repro/internal/pintest"
	"repro/internal/sim"
)

// mediaHash folds everything a chip-off adversary, the remount scan or
// the lock decision can observe into one digest — plus, per page, what
// the majority circuit's answer rests on (whether the flag is
// programmed, the median of its k cells and the lock day), so a storage
// change that kept every vote but perturbed that cell would still move it.
type mediaHash struct {
	h   hash.Hash
	buf [8]byte
}

func (m *mediaHash) u64(v uint64) {
	binary.LittleEndian.PutUint64(m.buf[:], v)
	m.h.Write(m.buf[:])
}

func (m *mediaHash) f64(v float64) { m.u64(math.Float64bits(v)) }

func (m *mediaHash) flag(b bool) {
	if b {
		m.u64(1)
	} else {
		m.u64(0)
	}
}

// bytes distinguishes nil (erased / unreadable) from a zero-length
// payload.
func (m *mediaHash) bytes(b []byte) {
	if b == nil {
		m.u64(math.MaxUint64)
		return
	}
	m.u64(uint64(len(b)))
	m.h.Write(b)
}

// err folds which sentinel an error wraps, not its text.
func (m *mediaHash) err(e error) {
	for i, s := range []error{ErrBadAddress, ErrNotErased, ErrOutOfOrder, ErrPageLocked, ErrBlockLocked,
		ErrUncorrectable, ErrProgramFailed, ErrEraseFailed, ErrPLockFailed, ErrBLockFailed} {
		if errors.Is(e, s) {
			m.u64(uint64(i + 1))
			return
		}
	}
	if e != nil {
		m.h.Write([]byte(e.Error()))
		return
	}
	m.u64(0)
}

func (m *mediaHash) chip(t *testing.T, c *Chip, now sim.Micros) {
	t.Helper()
	geo := c.Geometry()
	for b := 0; b < geo.Blocks; b++ {
		m.u64(uint64(c.WritePointer(b)))
		m.u64(uint64(c.PECycles(b)))
		bl, err := c.IsBlockLocked(b, now)
		m.err(err)
		m.flag(bl)
		for _, page := range c.ForensicDump(b, now) {
			m.bytes(page)
		}
		for p := 0; p < geo.PagesPerBlock(); p++ {
			a := PageAddr{Block: b, Page: p}
			pr, err := c.ProbePage(a, now)
			m.err(err)
			m.flag(pr.Programmed)
			m.flag(pr.Locked)
			m.flag(pr.NonZero)
			m.u64(uint64(pr.Stamp.LPA))
			m.u64(pr.Stamp.Seq)
			m.flag(pr.Stamp.Secure)
			m.flag(pr.Stamped)
			locked, err := c.IsPageLocked(a, now)
			m.err(err)
			m.flag(locked)
			programmed, median, day := c.flagVote(a)
			m.flag(programmed)
			m.f64(median)
			m.f64(day)
		}
	}
}

// runMediaScript drives one seeded random command script against a
// small chip with faults (injected read errors included) and one armed
// power cut, folding the full media state into the digest every 50 commands.
// The chip is built on donor's storage (nil: on none) and returned, used
// hard, next to the digest.
func runMediaScript(t *testing.T, donor *Chip, planes int, seed int64) (string, *Chip) {
	t.Helper()
	geo := Geometry{
		Blocks: 8, WLsPerBlock: 4, CellKind: vth.TLC, PageBytes: 64,
		EnduranceCycles: 1000, Planes: planes,
	}
	rng := rand.New(rand.NewSource(seed))
	cs := fault.NewCutState()
	cs.Arm(fault.CutSpec{AfterOps: uint64(200 + rng.Intn(600)), Op: fault.CutAny})
	c, err := NewFrom(donor, geo, WithSeed(seed), WithPowerCut(cs),
		WithFaults(fault.New(fault.Config{
			ProgramFail: 0.03, EraseFail: 0.03, PLockFail: 0.05, BLockFail: 0.05,
			ReadBER: 1e-4, WearWeight: 2, Seed: seed,
		}, 0)))
	if err != nil {
		t.Fatal(err)
	}
	m := &mediaHash{h: sha256.New()}
	ppb, bits := geo.PagesPerBlock(), geo.PagesPerWL()
	var now sim.Micros
	var seq uint64
	randAddr := func() PageAddr { return PageAddr{Block: rng.Intn(geo.Blocks), Page: rng.Intn(ppb)} }
	for step := 0; step < 2500; step++ {
		now += sim.Micros(rng.Intn(900))
		pl := catchLoss(func() {
			var lat sim.Micros
			var err error
			switch op := rng.Intn(100); {
			case op < 40: // program at a write frontier: nil, empty or real payload
				a := PageAddr{Block: rng.Intn(geo.Blocks)}
				a.Page = c.WritePointer(a.Block)
				var data []byte
				switch rng.Intn(4) {
				case 0:
				case 1:
					data = []byte{}
				default:
					data = make([]byte, 1+rng.Intn(geo.PageBytes))
					rng.Read(data)
				}
				lat, err = c.Program(a, data, now)
				if err == nil && rng.Intn(4) != 0 {
					seq++
					m.err(c.StampOOB(a, blockio.Stamp{LPA: int64(rng.Intn(1000)), Seq: seq, Secure: rng.Intn(2) == 0}))
				}
			case op < 45: // program or stamp anywhere: mostly rejected
				a := randAddr()
				lat, err = c.Program(a, []byte{byte(step)}, now)
				m.err(c.StampOOB(randAddr(), blockio.Stamp{LPA: int64(step), Seq: seq}))
			case op < 58: // pLock anywhere, erased pages included
				lat, err = c.PLock(randAddr(), now)
			case op < 66:
				slots := make([]int, 0, bits)
				for s := 0; s < bits; s++ {
					if rng.Intn(2) == 0 {
						slots = append(slots, s)
					}
				}
				lat, err = c.PLockWL(rng.Intn(geo.Blocks), rng.Intn(geo.WLsPerBlock), slots, now)
			case op < 69:
				lat, err = c.BLock(rng.Intn(geo.Blocks), now)
			case op < 75:
				lat, err = c.Scrub(randAddr(), now)
			case op < 83:
				src := randAddr()
				dst := PageAddr{Block: src.Block ^ 1}
				dst.Page = c.WritePointer(dst.Block)
				lat, err = c.Copyback(src, dst, now)
			case op < 90:
				lat, err = c.Erase(rng.Intn(geo.Blocks), now)
			case op < 93:
				// Log-uniform, hours to centuries: the long tail ages some
				// locks past the point where the majority vote flips.
				c.AdvanceDays(math.Pow(10, 6.5*rng.Float64()) / 10)
			case op < 96: // one page per plane, programmed then read back
				base := rng.Intn(geo.Blocks/planes) * planes
				addrs := make([]PageAddr, planes)
				datas := make([][]byte, planes)
				for i := range addrs {
					addrs[i] = PageAddr{Block: base + i, Page: c.WritePointer(base + i)}
					datas[i] = []byte{byte(step), byte(i)}
				}
				var errs []error
				lat, errs, err = c.ProgramMulti(addrs, datas, now)
				for _, e := range errs {
					m.err(e)
				}
				if err == nil {
					_, errs, err = c.ReadMulti(addrs, now)
					for _, e := range errs {
						m.err(e)
					}
				}
			default:
				var data []byte
				data, err = c.Read(randAddr(), now)
				m.bytes(data)
			}
			m.u64(uint64(lat))
			m.err(err)
		})
		if pl != nil {
			m.h.Write([]byte(pl.String()))
		}
		if step%50 == 49 {
			m.chip(t, c, now)
		}
	}
	if cs.Armed() {
		t.Fatalf("planes %d seed %d: the armed power cut never struck", planes, seed)
	}
	m.chip(t, c, now)
	return hex.EncodeToString(m.h.Sum(nil)), c
}

// TestChipMediaGolden pins the chip's observable media state and its
// stored flag votes over seeded command scripts, so any storage change
// that moves an RNG draw, a flag's median cell, a lock day, a stamp or a
// payload byte fails here. The digests were recorded with
// the chip still storing all k cells of each flag, the median taken by
// the test. Each script runs twice: on a new chip, and on a chip
// built from the one the previous script left behind (NewFrom) — locked,
// faulted, aged, power-cut, of the other plane count — which must be
// indistinguishable.
func TestChipMediaGolden(t *testing.T) {
	scripts := []struct {
		planes int
		seed   int64
	}{{1, 1}, {1, 2}, {1, 3}, {2, 4}, {2, 5}, {2, 6}}
	name := func(planes int, seed int64) string { return fmt.Sprintf("planes%d/seed%d", planes, seed) }
	var names []string
	for _, g := range scripts {
		names = append(names, name(g.planes, g.seed))
	}
	pins := pintest.Group(t, "nand", names...)
	_, retired := runMediaScript(t, nil, 2, 7)
	for _, g := range scripts {
		got, _ := runMediaScript(t, nil, g.planes, g.seed)
		pins.Check(t, name(g.planes, g.seed), got)
		var adopted string
		if adopted, retired = runMediaScript(t, retired, g.planes, g.seed); adopted != got {
			t.Errorf("planes %d seed %d: media digest %s on an adopted chip, %s on a new one", g.planes, g.seed, adopted, got)
		}
	}
}
