package vth

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pageKinds are the page kinds one wordline stores, in program order.
var pageKinds = map[CellKind][]PageKind{
	SLC: {LSB}, MLC: {LSB, MSB}, TLC: {LSB, CSB, MSB}, QLC: {LSB, CSB, MSB, XSB},
}

func TestCellKindBasics(t *testing.T) {
	cases := []struct {
		k      CellKind
		bits   int
		states int
		name   string
	}{
		{SLC, 1, 2, "SLC"},
		{MLC, 2, 4, "MLC"},
		{TLC, 3, 8, "TLC"},
		{QLC, 4, 16, "QLC"},
	}
	for _, c := range cases {
		if c.k.Bits() != c.bits || c.k.States() != c.states || c.k.String() != c.name {
			t.Errorf("%v: Bits=%d States=%d String=%q", c.k, c.k.Bits(), c.k.States(), c.k.String())
		}
	}
}

// Gray property: adjacent states differ in exactly one page bit, so a
// single-reference misread corrupts only one page.
func TestGrayCodeAdjacency(t *testing.T) {
	for _, k := range []CellKind{MLC, TLC, QLC} {
		pages := pageKinds[k]
		for s := 0; s < k.States()-1; s++ {
			diff := 0
			for _, p := range pages {
				if BitOf(k, s, p) != BitOf(k, s+1, p) {
					diff++
				}
			}
			if diff != 1 {
				t.Errorf("%v: states %d and %d differ in %d bits, want 1", k, s, s+1, diff)
			}
		}
	}
}

// Completeness: every state encodes its own bit combination, so all of
// them are reachable.
func TestGrayCodeComplete(t *testing.T) {
	for _, k := range []CellKind{SLC, MLC, TLC, QLC} {
		seen := map[int]int{} // bit combination -> state
		for s := 0; s < k.States(); s++ {
			combo := 0
			for i, p := range pageKinds[k] {
				combo |= int(BitOf(k, s, p)) << i
			}
			if prev, dup := seen[combo]; dup {
				t.Fatalf("%v: states %d and %d encode the same bits %b", k, prev, s, combo)
			}
			seen[combo] = s
		}
	}
}

func TestErasedStateIsAllOnes(t *testing.T) {
	for _, k := range []CellKind{SLC, MLC, TLC, QLC} {
		for _, p := range pageKinds[k] {
			if BitOf(k, 0, p) != 1 {
				t.Errorf("%v: erased state must read 1 on %v page", k, p)
			}
		}
	}
}

func TestMatchesPaperGrayTables(t *testing.T) {
	// Fig. 2(a): MLC E=11, P1=10, P2=00, P3=01 (MSB, LSB).
	wantMLC := [][2]byte{{1, 1}, {1, 0}, {0, 0}, {0, 1}}
	for s, w := range wantMLC {
		if BitOf(MLC, s, MSB) != w[0] || BitOf(MLC, s, LSB) != w[1] {
			t.Errorf("MLC state %d: got %d%d, want %d%d", s,
				BitOf(MLC, s, MSB), BitOf(MLC, s, LSB), w[0], w[1])
		}
	}
	// Fig. 2(b): TLC 111,110,100,000,010,011,001,101 (MSB, CSB, LSB).
	wantTLC := [][3]byte{{1, 1, 1}, {1, 1, 0}, {1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, 1, 1}, {0, 0, 1}, {1, 0, 1}}
	for s, w := range wantTLC {
		if BitOf(TLC, s, MSB) != w[0] || BitOf(TLC, s, CSB) != w[1] || BitOf(TLC, s, LSB) != w[2] {
			t.Errorf("TLC state %d mismatch", s)
		}
	}
}

func TestBitOfPanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { BitOf(TLC, 8, LSB) },
		func() { BitOf(TLC, -1, LSB) },
		func() { BitOf(SLC, 0, MSB) },
		func() { BitOf(MLC, 0, CSB) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDistCDFMonotone(t *testing.T) {
	d := Dist{Mean: 1, Sigma: 0.3, TailProb: 0.05, TailShift: 1.2, TailSigma: 0.4}
	prev := -1.0
	for x := -3.0; x <= 6.0; x += 0.1 {
		v := d.CDF(x)
		if v < prev {
			t.Fatalf("CDF not monotone at %v", x)
		}
		if v < 0 || v > 1 {
			t.Fatalf("CDF(%v) = %v out of [0,1]", x, v)
		}
		prev = v
	}
	if d.CDF(100) < 0.9999 {
		t.Fatal("CDF should approach 1")
	}
}

func TestDistSampleMatchesCDF(t *testing.T) {
	d := Dist{Mean: 2, Sigma: 0.5, TailProb: 0.1, TailShift: 2, TailSigma: 0.3}
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	x := 2.8
	hits := 0
	for i := 0; i < n; i++ {
		if d.Sample(rng) <= x {
			hits++
		}
	}
	got := float64(hits) / n
	want := d.CDF(x)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("Monte-Carlo CDF(%v) = %v, closed form %v", x, got, want)
	}
}

func TestFreshPagesWellBelowECCLimit(t *testing.T) {
	for _, m := range []*Model{NewTLC(), NewMLC()} {
		for _, pk := range pageKinds[m.Kind] {
			if r := m.NormalizedPageRBER(pk, Condition{}); r >= 0.5 {
				t.Errorf("%v %v fresh normalized RBER %v, want < 0.5", m.Kind, pk, r)
			}
		}
	}
}

func TestRBERIncreasesWithPE(t *testing.T) {
	m := NewTLC()
	prev := 0.0
	for _, pe := range []int{0, 500, 1000, 2000} {
		r := m.PageRBER(MSB, Condition{PECycles: pe})
		if r < prev {
			t.Fatalf("RBER decreased with P/E cycles at %d", pe)
		}
		prev = r
	}
}

func TestRBERIncreasesWithRetention(t *testing.T) {
	m := NewTLC()
	prev := 0.0
	for _, days := range []float64{0, 10, 100, 365, 1825} {
		r := m.PageRBER(MSB, Condition{PECycles: 1000, RetentionDays: days})
		if r < prev {
			t.Fatalf("RBER decreased with retention at %v days", days)
		}
		prev = r
	}
}

// Fig. 10: RBER grows with the open interval; the paper measures ~30%
// growth from a zero interval to the longest one.
func TestOpenIntervalEffect(t *testing.T) {
	m := NewTLC()
	zero := m.PageRBER(LSB, Condition{})
	long := m.PageRBER(LSB, Condition{OpenIntervalDays: 10})
	if long <= zero {
		t.Fatal("open interval should raise RBER")
	}
	growth := long/zero - 1
	if growth < 0.15 || growth > 0.8 {
		t.Errorf("open-interval growth %.2f, want roughly 0.3 (0.15..0.8)", growth)
	}
	// Lines are ordered: fresh < P/E < P/E+retention at every interval.
	for _, d := range []float64{0, 0.01, 1, 10} {
		fresh := m.PageRBER(LSB, Condition{OpenIntervalDays: d})
		pe := m.PageRBER(LSB, Condition{OpenIntervalDays: d, PECycles: 1000})
		ret := m.PageRBER(LSB, Condition{OpenIntervalDays: d, PECycles: 1000, RetentionDays: 365})
		if !(fresh < pe && pe < ret) {
			t.Errorf("interval %v days: lines out of order (%v, %v, %v)", d, fresh, pe, ret)
		}
	}
}

// Fig. 6(a): after OSR-sanitizing the LSB page of a 3K-P/E MLC wordline, a
// meaningful minority (~7%) of MSB pages exceed the ECC limit, and after a
// 1-year retention most do, with worst cases beyond 1.5x.
func TestOSRMLCMatchesFig6a(t *testing.T) {
	m := NewMLC()
	rng := rand.New(rand.NewSource(11))
	const wls = 4000
	above, aboveRet := 0, 0
	maxRet := 0.0
	for i := 0; i < wls; i++ {
		c := Condition{PECycles: 3000, WLVariation: m.SampleWLVariation(rng)}
		if m.OSRPageRBER(MSB, c, []PageKind{LSB})/m.ECCLimitRBER > 1 {
			above++
		}
		cr := c
		cr.RetentionDays = 365
		ret := m.OSRPageRBER(MSB, cr, []PageKind{LSB}) / m.ECCLimitRBER
		if ret > 1 {
			aboveRet++
		}
		if ret > maxRet {
			maxRet = ret
		}
	}
	fracOSR := float64(above) / wls
	fracRet := float64(aboveRet) / wls
	if fracOSR < 0.03 || fracOSR > 0.15 {
		t.Errorf("MLC OSR: %.1f%% of MSB pages above ECC limit, paper reports 7.4%%", 100*fracOSR)
	}
	if fracRet < 0.5 {
		t.Errorf("MLC OSR + 1y retention: only %.1f%% above limit, paper says most", 100*fracRet)
	}
	if maxRet < 1.5 {
		t.Errorf("MLC OSR + retention worst case %.2f, paper reports > 1.5x", maxRet)
	}
}

// Fig. 6(b): OSR-sanitizing LSB+CSB of a 1K-P/E TLC wordline makes every
// MSB page unreadable.
func TestOSRTLCMatchesFig6b(t *testing.T) {
	m := NewTLC()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		c := Condition{PECycles: 1000, WLVariation: m.SampleWLVariation(rng)}
		r := m.OSRPageRBER(MSB, c, []PageKind{LSB, CSB}) / m.ECCLimitRBER
		if r <= 1 {
			t.Fatalf("TLC MSB page readable after LSB+CSB OSR (%.3f); paper: all unreadable", r)
		}
	}
}

// OSR destroys the target page: the sanitized LSB's own error rate must be
// enormous (the E and P1 distributions merge).
func TestOSRDestroysTargetPage(t *testing.T) {
	m := NewMLC()
	c := Condition{PECycles: 3000}
	r := m.OSRPageRBER(LSB, c, []PageKind{LSB})
	if r < 0.05 {
		t.Fatalf("sanitized LSB RBER %.4f, expected catastrophic (>5%%)", r)
	}
}

// Only the intended states move: in MLC LSB sanitization, P2 and P3 keep
// their distributions (Fig. 5 shows 00 and 01 unchanged).
func TestOSRMovesOnlyErasedStateForMLCLSB(t *testing.T) {
	m := NewMLC()
	c := Condition{PECycles: 3000}
	dists, moved := m.OSR(c, []PageKind{LSB})
	if !moved[0] {
		t.Fatal("E state should be reprogrammed")
	}
	if moved[1] || moved[2] || moved[3] {
		t.Fatalf("only E should move, got moved=%v", moved)
	}
	if dists[0].Mean < m.Means[1]-0.01 {
		t.Fatal("E state should land at P1's position")
	}
}

func TestProgramDisturbRaisesRBER(t *testing.T) {
	m := NewTLC()
	base := m.PageRBER(LSB, Condition{PECycles: 1000})
	d := m.PageRBER(LSB, Condition{PECycles: 1000, ProgramDisturbs: 1, DisturbV: 17.5, DisturbT: 200})
	if d <= base {
		t.Fatal("program disturb should raise RBER")
	}
	// Below the disturb onset voltage nothing happens.
	low := m.PageRBER(LSB, Condition{PECycles: 1000, ProgramDisturbs: 1, DisturbV: 15.5, DisturbT: 200})
	if low != base {
		t.Fatal("sub-threshold disturb voltage should not change RBER")
	}
}

// Fig. 9(c) anchor: the paper measures 47.3% flag-programming success at
// the lowest corner (Vp1, 100µs).
func TestFlagProgramSuccessAnchor(t *testing.T) {
	f := DefaultFlagModel()
	got := f.ProgramSuccessProb(PLockVoltages[0], 100)
	if math.Abs(got-0.473) > 0.01 {
		t.Fatalf("success at (Vp1,100µs) = %.3f, paper measures 0.473", got)
	}
	// Success increases with both voltage and latency.
	if f.ProgramSuccessProb(PLockVoltages[3], 100) <= got {
		t.Fatal("higher voltage should program more reliably")
	}
	if f.ProgramSuccessProb(PLockVoltages[0], 200) <= got {
		t.Fatal("longer pulse should program more reliably")
	}
}

// Fig. 9(d): the chosen operating point (ii) = (Vp4, 100µs) keeps a 9-cell
// majority flag correct for 5 years at 1K P/E, while the rejected corner
// (vi) = (Vp2, 200µs) loses the majority.
func TestFlagRetentionFeasibility(t *testing.T) {
	f := DefaultFlagModel()
	const fiveYears = 5 * 365
	// (ii): expected errors comfortably below the majority threshold.
	errsII := f.ExpectedRetentionErrors(9, PLockVoltages[3], 100, fiveYears, 1000)
	if errsII > 2 {
		t.Fatalf("(Vp4,100µs) expected errors %.2f at 5y, paper reports <= 2", errsII)
	}
	if mf := f.MajorityFailureProb(9, PLockVoltages[3], 100, fiveYears, 1000); mf > 1e-2 {
		t.Fatalf("(Vp4,100µs) majority failure prob %.3g, want < 1%%", mf)
	}
	// (vi): around 5 of 9 cells fail, flipping the majority.
	errsVI := f.ExpectedRetentionErrors(9, PLockVoltages[1], 200, fiveYears, 1000)
	if errsVI < 4 {
		t.Fatalf("(Vp2,200µs) expected errors %.2f at 5y, paper reports ~5", errsVI)
	}
	if mf := f.MajorityFailureProb(9, PLockVoltages[1], 200, fiveYears, 1000); mf < 0.5 {
		t.Fatalf("(Vp2,200µs) majority failure prob %.3g, should fail", mf)
	}
}

func TestMajorityFailureProbMonotoneInK(t *testing.T) {
	f := DefaultFlagModel()
	// With per-cell error prob < 0.5, more redundancy means lower failure.
	prev := 1.0
	for _, k := range []int{5, 7, 9, 11} {
		p := f.MajorityFailureProb(k, PLockVoltages[3], 150, 365, 1000)
		if p > prev {
			t.Fatalf("majority failure increased from k=%d", k)
		}
		prev = p
	}
}

// Fig. 11(b): a block read fails (normalized RBER crosses 1.0) once the
// SSL center Vth exceeds about 3 V.
func TestSSLCutoffNear3V(t *testing.T) {
	m := NewTLC()
	s := DefaultSSLModel()
	base := m.PageRBER(MSB, Condition{PECycles: 1000})
	at25 := s.BlockReadRBER(2.5, base) / m.ECCLimitRBER
	at30 := s.BlockReadRBER(3.0, base) / m.ECCLimitRBER
	at35 := s.BlockReadRBER(3.5, base) / m.ECCLimitRBER
	if at25 >= 1 {
		t.Fatalf("RBER at 2.5V = %.2f, should be below ECC limit", at25)
	}
	if at30 < 0.8 || at30 > 1.5 {
		t.Fatalf("RBER at 3.0V = %.2f, should cross the limit around 3V", at30)
	}
	if at35 <= 2 {
		t.Fatalf("RBER at 3.5V = %.2f, should be far beyond the limit", at35)
	}
}

// Fig. 12: the final bLock operating point (ii) = (Vb6, 300µs) keeps the
// SSL center above the 3V disable threshold for 5 years; (i) = (Vb6,400µs)
// stays above 4V; the rejected (vi) = (Vb5, 200µs) drops below 3V within a
// year.
func TestBLockDesignSpaceFeasibility(t *testing.T) {
	s := DefaultSSLModel()
	const year, fiveYears = 365, 5 * 365
	vb5, vb6 := BLockVoltages[4], BLockVoltages[5]
	if c := s.CenterAfter(vb6, 400, fiveYears); c < 4 {
		t.Errorf("(i)=(Vb6,400): center %.2f at 5y, paper predicts > 4V", c)
	}
	if c := s.CenterAfter(vb6, 300, fiveYears); c < s.DisableThreshold {
		t.Errorf("(ii)=(Vb6,300): center %.2f at 5y, must stay above 3V", c)
	}
	if c := s.CenterAfter(vb5, 200, year); c >= s.DisableThreshold {
		t.Errorf("(vi)=(Vb5,200): center %.2f at 1y, paper predicts < 3V before 1 year", c)
	}
	// Region I: every Vb1..Vb4 combo fails to reach 3V even at 400µs.
	for _, v := range BLockVoltages[:4] {
		if c := s.ProgrammedCenter(v, 400); c >= s.DisableThreshold {
			t.Errorf("V=%.0f: programmed center %.2f should be below 3V (Region I)", v, c)
		}
	}
	// All Vb5/Vb6 combos are candidates.
	for _, v := range []float64{vb5, vb6} {
		for _, dur := range BLockLatencies {
			if c := s.ProgrammedCenter(v, dur); c < s.DisableThreshold {
				t.Errorf("candidate (%.0f,%.0f) programmed center %.2f below 3V", v, dur, c)
			}
		}
	}
}

func TestSSLCenterDecaysMonotonically(t *testing.T) {
	s := DefaultSSLModel()
	prev := math.Inf(1)
	for _, days := range []float64{0, 1, 10, 100, 1000} {
		c := s.CenterAfter(21, 300, days)
		if c > prev {
			t.Fatal("SSL center must not rise with retention")
		}
		prev = c
	}
}

// Property: PageRBER is always a valid probability and normalization is
// consistent.
func TestPageRBERValidProperty(t *testing.T) {
	m := NewTLC()
	f := func(pe uint16, days uint16, wlv int8) bool {
		c := Condition{
			PECycles:      int(pe % 3000),
			RetentionDays: float64(days % 2000),
			WLVariation:   float64(wlv) / 64.0,
		}
		for _, pk := range pageKinds[m.Kind] {
			r := m.PageRBER(pk, c)
			if r < 0 || r > 1 || math.IsNaN(r) {
				return false
			}
			if math.Abs(m.NormalizedPageRBER(pk, c)-r/m.ECCLimitRBER) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Monte-Carlo page read agrees with the closed-form RBER. A
// sampled cell reads as the state whose reference interval holds its Vth.
func TestMonteCarloAgreesWithClosedForm(t *testing.T) {
	m := NewTLC()
	c := Condition{PECycles: 1000, RetentionDays: 100}
	rng := rand.New(rand.NewSource(99))
	const cells = 400000
	errs := 0
	for i := 0; i < cells; i++ {
		s := rng.Intn(m.Kind.States())
		v := m.StateDist(s, c).Sample(rng)
		got := 0
		for got < len(m.Refs) && v > m.Refs[got] {
			got++
		}
		if BitOf(m.Kind, got, MSB) != BitOf(m.Kind, s, MSB) {
			errs++
		}
	}
	mc := float64(errs) / cells
	cf := m.PageRBER(MSB, c)
	if math.Abs(mc-cf) > cf*0.25+1e-4 {
		t.Fatalf("Monte-Carlo RBER %.5f vs closed form %.5f", mc, cf)
	}
}

// OSR sequencing: a second pulse on already-moved cells must compound the
// over-programming tail, never shrink it.
func TestOSRTailCompounds(t *testing.T) {
	m := NewTLC()
	c := Condition{PECycles: 1000, WLVariation: 0.5}
	one, movedOne := m.OSR(c, []PageKind{LSB})
	two, movedTwo := m.OSR(c, []PageKind{LSB, CSB})
	if !movedOne[0] || !movedTwo[0] {
		t.Fatal("E state must move in both cases")
	}
	if two[0].TailProb < one[0].TailProb {
		t.Fatalf("second pulse shrank the tail: %.4f -> %.4f", one[0].TailProb, two[0].TailProb)
	}
	// OSR never programs downwards.
	for s := range two {
		if movedTwo[s] && two[s].Mean < m.Means[s]-1e-9 {
			t.Fatalf("state %d moved down", s)
		}
	}
}

// Arrhenius temperature acceleration: 30°C is the identity, and the
// standard 85°C bake accelerates charge loss by hundreds of times.
func TestRetentionAcceleration(t *testing.T) {
	if got := RetentionAcceleration(0); got != 1 {
		t.Fatalf("AF(default) = %v, want 1", got)
	}
	if got := RetentionAcceleration(30); math.Abs(got-1) > 1e-9 {
		t.Fatalf("AF(30°C) = %v, want 1", got)
	}
	af85 := RetentionAcceleration(85)
	if af85 < 100 || af85 > 5000 {
		t.Fatalf("AF(85°C) = %v, want O(100..1000)", af85)
	}
	// Monotone in temperature.
	if RetentionAcceleration(55) >= af85 || RetentionAcceleration(55) <= 1 {
		t.Fatal("acceleration must grow with temperature")
	}
}

func TestHotStorageAgesFaster(t *testing.T) {
	m := NewTLC()
	cold := m.PageRBER(MSB, Condition{PECycles: 1000, RetentionDays: 30})
	hot := m.PageRBER(MSB, Condition{PECycles: 1000, RetentionDays: 30, TempC: 85})
	if hot <= cold {
		t.Fatal("85°C retention must degrade more than 30°C")
	}
	// 30 days at 85°C should be equivalent to AF*30 days at 30°C.
	af := RetentionAcceleration(85)
	equiv := m.PageRBER(MSB, Condition{PECycles: 1000, RetentionDays: 30 * af})
	if math.Abs(hot-equiv)/equiv > 1e-9 {
		t.Fatalf("temperature scaling inconsistent: %v vs %v", hot, equiv)
	}
}
