package fault

import (
	"math"
	"math/rand"
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

// refInjector is the injector's decision path as it was before the wear
// curve was tabled: the multiplier recomputed with math.Pow on every
// call. TestFailDifferential holds the tabled injector to it.
type refInjector struct {
	cfg    Config
	state  uint64
	counts Counts
}

func (r *refInjector) wearMultiplier(peCycles, endurance int) float64 {
	if r.cfg.WearWeight <= 0 || endurance <= 0 || peCycles <= 0 {
		return 1
	}
	exp := r.cfg.WearExponent
	if exp <= 0 {
		exp = 2
	}
	return 1 + r.cfg.WearWeight*math.Pow(float64(peCycles)/float64(endurance), exp)
}

func (r *refInjector) fail(base float64, peCycles, endurance int, count *uint64) bool {
	if base <= 0 {
		return false
	}
	p := base * r.wearMultiplier(peCycles, endurance)
	if p > maxFailProb {
		p = maxFailProb
	}
	r.state += 0x9E3779B97F4A7C15
	if float64(mix64(r.state)>>11)/(1<<53) < p {
		*count++
		return true
	}
	return false
}

// TestFailDifferential runs the tabled injector and the per-call
// reference through the same random scripts of (kind, P/E count,
// endurance) and requires the same decision at every step and the same
// counts and stream state at the end.
func TestFailDifferential(t *testing.T) {
	configs := map[string]Config{
		"uniform 1e-3": Uniform(1e-3, 11),
		"uniform 0.2":  Uniform(0.2, 12),
		"capped":       {ProgramFail: 0.5, EraseFail: 0.3, PLockFail: 0.9, BLockFail: 0.1, WearWeight: 3, WearExponent: 2, Seed: 13},
		"flat":         {ProgramFail: 0.3, EraseFail: 0.3, PLockFail: 0.3, BLockFail: 0.3, WearWeight: 0, Seed: 14},
		"exponent 0":   {ProgramFail: 0.1, EraseFail: 0.2, PLockFail: 0.3, BLockFail: 0.05, WearWeight: 2, Seed: 15},
		"exponent 1.5": {ProgramFail: 0.1, EraseFail: 0.2, PLockFail: 0.3, BLockFail: 0.05, WearWeight: 5, WearExponent: 1.5, Seed: 16},
		"zero kinds":   {ProgramFail: 0.25, PLockFail: 0.25, WearWeight: 3, WearExponent: 2, Seed: 17},
		// One P/E cycle doubles the probability: a count read as its
		// neighbour changes decisions.
		"steep": {ProgramFail: 0.2, EraseFail: 0.2, PLockFail: 0.2, BLockFail: 0.2, WearWeight: 1e6, WearExponent: 2, Seed: 18},
	}
	const steps = 20000
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			script := rand.New(rand.NewSource(cfg.Seed))
			in := New(cfg, 2)
			ref := &refInjector{cfg: cfg, state: in.state}
			endurance, maxPE := 3000, 0
			for i := 0; i < steps; i++ {
				if i == steps/2 {
					// A chip of another endurance on the same injector,
					// lower, so that every later count is in the tables
					// filled for the first.
					endurance = 1000
				}
				var pe int
				switch script.Intn(6) {
				case 0:
					pe = 0
				case 1:
					pe = endurance
				case 2:
					pe = 3 * endurance
				case 3:
					pe = -1 - script.Intn(5)
				default:
					pe = script.Intn(3*endurance + 1)
				}
				if i >= steps/2 {
					maxPE = max(maxPE, pe)
				}
				var got, want bool
				switch script.Intn(4) {
				case 0:
					got, want = in.FailProgram(pe, endurance), ref.fail(cfg.ProgramFail, pe, endurance, &ref.counts.ProgramFails)
				case 1:
					got, want = in.FailErase(pe, endurance), ref.fail(cfg.EraseFail, pe, endurance, &ref.counts.EraseFails)
				case 2:
					got, want = in.FailPLock(pe, endurance), ref.fail(cfg.PLockFail, pe, endurance, &ref.counts.PLockFails)
				default:
					got, want = in.FailBLock(pe, endurance), ref.fail(cfg.BLockFail, pe, endurance, &ref.counts.BLockFails)
				}
				if got != want {
					t.Fatalf("step %d: decision %v at pe %d, endurance %d, reference %v", i, got, pe, endurance, want)
				}
			}
			if in.Counts() != ref.counts {
				t.Fatalf("counts %+v, reference %+v", in.Counts(), ref.counts)
			}
			if in.state != ref.state {
				t.Fatalf("stream state %#x, reference %#x", in.state, ref.state)
			}
			for k, tab := range in.prob {
				if len(tab) > maxPE+1 {
					t.Fatalf("kind %d's table holds %d entries after a largest P/E count of %d", k, len(tab), maxPE)
				}
			}
			if in.Counts() == (Counts{}) {
				t.Fatal("script injected no failure")
			}
		})
	}
}

// TestFailAllocsPerRun: a decision or a read at a P/E count the injector
// has already seen allocates nothing.
func TestFailAllocsPerRun(t *testing.T) {
	in := New(Uniform(1e-3, 1), 0)
	in.FailProgram(600, 1000)
	allocs := testing.AllocsPerRun(100, func() {
		in.FailProgram(600, 1000)
		in.FailErase(17, 1000)
		in.FailPLock(599, 1000)
		in.FailBLock(0, 1000)
		in.ReadErrors(8*4096, 300, 1000)
	})
	if allocs != 0 {
		t.Fatalf("warm fault decisions allocate %v times per run, want 0", allocs)
	}
}
