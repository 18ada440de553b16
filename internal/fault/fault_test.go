package fault

import (
	"math"
	"testing"

	"repro/internal/nand/vth"
)

// TestDeterministicSchedule is the golden contract: same config, same
// stream, same call sequence ⇒ identical decisions, bit for bit.
func TestDeterministicSchedule(t *testing.T) {
	run := func() ([]bool, Counts) {
		in := New(Uniform(0.05, 42), 3)
		var out []bool
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0:
				out = append(out, in.FailProgram(i%1000, 1000))
			case 1:
				out = append(out, in.FailErase(i%1000, 1000))
			case 2:
				out = append(out, in.FailPLock(i%1000, 1000))
			default:
				out = append(out, in.FailBLock(i%1000, 1000))
			}
		}
		return out, in.Counts()
	}
	a, ca := run()
	b, cb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between identical runs", i)
		}
	}
	if ca != cb {
		t.Fatalf("counts diverged: %+v vs %+v", ca, cb)
	}
	if ca == (Counts{}) {
		t.Fatal("no failures injected at rate 0.05 over 2000 draws")
	}
}

// TestStreamSeparation: different streams (chips) and different seeds
// must draw visibly different schedules.
func TestStreamSeparation(t *testing.T) {
	draw := func(seed int64, stream uint64) []bool {
		in := New(Uniform(0.1, seed), stream)
		out := make([]bool, 500)
		for i := range out {
			out[i] = in.FailProgram(0, 1000)
		}
		return out
	}
	same := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(draw(1, 0), draw(1, 1)) {
		t.Fatal("streams 0 and 1 drew the same schedule")
	}
	if same(draw(1, 0), draw(2, 0)) {
		t.Fatal("seeds 1 and 2 drew the same schedule")
	}
}

// TestZeroRateConsumesNoState: a disabled fault kind must not perturb
// the stream of enabled ones, so turning kinds on and off independently
// keeps the others' schedules stable.
func TestZeroRateConsumesNoState(t *testing.T) {
	progOnly := New(Config{ProgramFail: 0.2, Seed: 9}, 0)
	mixed := New(Config{ProgramFail: 0.2, Seed: 9}, 0)
	for i := 0; i < 300; i++ {
		// Interleave disabled-kind calls on the mixed injector.
		mixed.FailErase(0, 1000)
		mixed.FailBLock(0, 1000)
		if progOnly.FailProgram(0, 1000) != mixed.FailProgram(0, 1000) {
			t.Fatalf("draw %d: disabled erase/bLock calls perturbed the program schedule", i)
		}
	}
}

// TestWearCurve: failure frequency must rise with P/E cycles.
func TestWearCurve(t *testing.T) {
	count := func(pe int) int {
		in := New(Config{ProgramFail: 0.02, WearWeight: 3, WearExponent: 2, Seed: 5}, 0)
		n := 0
		for i := 0; i < 20000; i++ {
			if in.FailProgram(pe, 1000) {
				n++
			}
		}
		return n
	}
	fresh, worn := count(0), count(1000)
	// Worn multiplier is 1+3 = 4×; demand at least 2× to keep the test
	// robust to sampling noise.
	if worn < 2*fresh {
		t.Fatalf("wear curve flat: %d fails fresh vs %d worn", fresh, worn)
	}
}

// TestWearCap: near-certain failure probabilities are capped so retry
// loops terminate.
func TestWearCap(t *testing.T) {
	in := New(Config{ProgramFail: 1.0, WearWeight: 100, Seed: 1}, 0)
	ok := false
	for i := 0; i < 10000; i++ {
		if !in.FailProgram(1000, 1000) {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("probability cap %v never let an operation succeed", maxFailProb)
	}
}

// TestReadErrorsECCJudgment: small error counts are corrected, counts
// beyond the engine limit are uncorrectable, zero BER draws nothing.
func TestReadErrorsECCJudgment(t *testing.T) {
	in := New(Config{Seed: 1}, 0)
	if n, unc := in.ReadErrors(1<<20, 0, 1000); n != 0 || unc {
		t.Fatalf("zero BER drew %d errors (uncorrectable=%v)", n, unc)
	}

	bits := 8 * 4096
	limit := int(vth.ECCLimitRBER * float64(bits))
	low := New(Config{ReadBER: 0.1 * vth.ECCLimitRBER, Seed: 2}, 0)
	high := New(Config{ReadBER: 10 * vth.ECCLimitRBER, Seed: 2}, 0)
	var sawCorrected, sawUncorrectable bool
	for i := 0; i < 200; i++ {
		if n, unc := low.ReadErrors(bits, 0, 1000); n > 0 && !unc {
			if n > limit {
				t.Fatalf("count %d beyond limit %d judged correctable", n, limit)
			}
			sawCorrected = true
		}
		if n, unc := high.ReadErrors(bits, 0, 1000); unc {
			if n <= limit {
				t.Fatalf("count %d within limit %d judged uncorrectable", n, limit)
			}
			sawUncorrectable = true
		}
	}
	if !sawCorrected || !sawUncorrectable {
		t.Fatalf("judgment coverage: corrected=%v uncorrectable=%v", sawCorrected, sawUncorrectable)
	}
	if c := high.Counts(); c.ReadUncorrectable == 0 || c.ReadBitErrors == 0 {
		t.Fatalf("read counters not accounted: %+v", c)
	}
}

// TestFlipBits flips exactly within bounds and actually changes data.
func TestFlipBits(t *testing.T) {
	in := New(Config{Seed: 3}, 0)
	data := make([]byte, 64)
	in.FlipBits(data, 16)
	nonzero := 0
	for _, b := range data {
		if b != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("FlipBits changed nothing")
	}
	in.FlipBits(nil, 5) // must not panic
}

// TestCorruptTail leaves the front half intact (the partially-programmed
// prefix the FTL must treat as leaked) and mangles part of the back.
func TestCorruptTail(t *testing.T) {
	in := New(Config{Seed: 4}, 0)
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	in.CorruptTail(data)
	for i := 0; i < len(data)/2; i++ {
		if data[i] != byte(i) {
			t.Fatalf("front half byte %d changed", i)
		}
	}
	in.CorruptTail(nil) // must not panic
}

// TestUniformConfig checks the one-knob CLI mapping.
func TestUniformConfig(t *testing.T) {
	c := Uniform(0.01, 7)
	if !c.Enabled() {
		t.Fatal("Uniform(0.01) not enabled")
	}
	for _, p := range []float64{c.ProgramFail, c.EraseFail, c.PLockFail, c.BLockFail} {
		if p != 0.01 {
			t.Fatalf("op probability %v, want 0.01", p)
		}
	}
	want := 0.01 * vth.ECCLimitRBER
	if math.Abs(c.ReadBER-want) > 1e-15 {
		t.Fatalf("ReadBER %v, want %v", c.ReadBER, want)
	}
	if Uniform(0, 7).Enabled() {
		t.Fatal("Uniform(0) enabled")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero Config enabled")
	}
}
