package chipchar

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nand/vth"
	"repro/internal/nand/vth/vthtest"
)

func testCfg() Config { return Config{WLs: 2000, Seed: 42} }

// Figure 6: the paper's three headline observations.
func TestFigure6Shape(t *testing.T) {
	r := Figure6(testCfg())
	if len(r.MLC) != 3 || len(r.TLC) != 3 {
		t.Fatal("expected 3 boxes per technology")
	}
	mlcInit, mlcOSR, mlcRet := r.MLC[0], r.MLC[1], r.MLC[2]
	tlcInit, tlcOSR, tlcRet := r.TLC[0], r.TLC[1], r.TLC[2]

	// Initial RBER sits well below the ECC limit.
	if mlcInit.Box.Median >= 0.5 || tlcInit.Box.Median >= 0.8 {
		t.Errorf("initial medians too high: MLC %.2f TLC %.2f", mlcInit.Box.Median, tlcInit.Box.Median)
	}
	if mlcInit.FracAboveLimit > 0.001 || tlcInit.FracAboveLimit > 0.001 {
		t.Error("fresh pages must be readable")
	}
	// MLC after OSR: ~7.4% of MSB pages exceed the limit.
	if mlcOSR.FracAboveLimit < 0.03 || mlcOSR.FracAboveLimit > 0.15 {
		t.Errorf("MLC OSR frac above limit %.3f, paper reports 0.074", mlcOSR.FracAboveLimit)
	}
	// After retention most MLC MSB pages are unreadable, worst > 1.5x.
	if mlcRet.FracAboveLimit < 0.5 {
		t.Errorf("MLC OSR+retention frac %.2f, paper says most fail", mlcRet.FracAboveLimit)
	}
	if mlcRet.Box.Max < 1.5 {
		t.Errorf("MLC OSR+retention max %.2f, paper reports > 1.5x", mlcRet.Box.Max)
	}
	// TLC: all MSB pages unreadable after sanitizing LSB+CSB.
	if tlcOSR.FracAboveLimit < 0.999 {
		t.Errorf("TLC OSR frac %.3f, paper: all unreadable", tlcOSR.FracAboveLimit)
	}
	if tlcRet.FracAboveLimit < 0.999 {
		t.Errorf("TLC OSR+ret frac %.3f, paper: all unreadable", tlcRet.FracAboveLimit)
	}
	// Ordering within each technology: initial < after-OSR medians.
	if !(mlcInit.Box.Median < mlcOSR.Box.Median && tlcInit.Box.Median < tlcOSR.Box.Median) {
		t.Error("OSR must raise the median RBER")
	}
}

// Figure 9: region structure and the final operating point.
func TestFigure9DesignSpace(t *testing.T) {
	r := Figure9(testCfg())
	if len(r.Combos) != len(vth.PLockVoltages)*len(vth.PLockLatencies) {
		t.Fatalf("%d combos", len(r.Combos))
	}
	counts := map[Region]int{}
	for _, c := range r.Combos {
		counts[c.Region]++
	}
	// The paper's Fig. 9(a): 4 in Region I, 5 in Region II, 6 candidates.
	if counts[RegionI] != 4 {
		t.Errorf("Region I has %d combos, paper shows 4", counts[RegionI])
	}
	if counts[RegionII] != 5 {
		t.Errorf("Region II has %d combos, paper shows 5", counts[RegionII])
	}
	if counts[RegionCandidate] != 6 {
		t.Errorf("%d candidates, paper shows 6", counts[RegionCandidate])
	}
	// Region I must be the high-V/high-t corner; Region II low-V/low-t.
	for _, c := range r.Combos {
		if c.V == vth.PLockVoltages[4] && c.T == 200 && c.Region != RegionI {
			t.Error("(Vp5,200µs) must be in Region I")
		}
		if c.V == vth.PLockVoltages[0] && c.T == 100 && c.Region != RegionII {
			t.Error("(Vp1,100µs) must be in Region II")
		}
	}
	// The paper's anchor: 47.3% success at (Vp1, 100µs).
	for _, c := range r.Combos {
		if c.V == vth.PLockVoltages[0] && c.T == 100 {
			if math.Abs(c.FlagSuccess-0.473) > 0.01 {
				t.Errorf("(Vp1,100) success %.3f, want 0.473", c.FlagSuccess)
			}
		}
	}
	// Final choice: combination (ii) = (Vp4, 100µs).
	if r.Chosen.V != vth.PLockVoltages[3] || r.Chosen.T != 100 {
		t.Errorf("chosen (%.1fV, %.0fµs), paper selects (Vp4, 100µs)", r.Chosen.V, r.Chosen.T)
	}
	if got := (vth.OperatingPoint{V: r.Chosen.V, T: r.Chosen.T}); got != vth.PLockPoint {
		t.Errorf("chosen %+v, the chip locks pages at vth.PLockPoint %+v", got, vth.PLockPoint)
	}
	// Rejected candidate (vi) = (Vp2, 200µs): ~5 retention errors at 5y.
	for _, c := range r.Combos {
		if c.V == vth.PLockVoltages[1] && c.T == 200 {
			if c.RetErrors5y < 4 || c.RetErrors5y > 8 {
				t.Errorf("(Vp2,200) 5y errors %.1f, paper reports 5", c.RetErrors5y)
			}
		}
	}
	// Candidate retention curves exist and are non-decreasing in days.
	if len(r.RetentionErrs) != 6 {
		t.Fatalf("%d retention curves, want 6", len(r.RetentionErrs))
	}
	for key, curve := range r.RetentionErrs {
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1]-1e-9 {
				t.Errorf("%s: retention errors decreased over time", key)
			}
		}
	}
}

// Figure 10: growth with the open interval and strict line ordering.
func TestFigure10Shape(t *testing.T) {
	r := Figure10(testCfg())
	if len(r.Buckets) != 6 {
		t.Fatalf("%d buckets", len(r.Buckets))
	}
	for i := 1; i < len(r.NoPE); i++ {
		if r.NoPE[i] < r.NoPE[i-1] || r.PE[i] < r.PE[i-1] || r.PERet[i] < r.PERet[i-1] {
			t.Fatal("RBER must grow with open-interval length")
		}
	}
	for i := range r.NoPE {
		if !(r.NoPE[i] < r.PE[i] && r.PE[i] < r.PERet[i]) {
			t.Fatal("condition lines out of order")
		}
	}
	// ~30% growth from zero to very long (fresh line).
	growth := r.NoPE[len(r.NoPE)-1]/r.NoPE[0] - 1
	if growth < 0.15 || growth > 0.8 {
		t.Errorf("open-interval growth %.2f, paper reports ≈0.3", growth)
	}
}

// Figure 11(b): monotone in center Vth, cutoff at ~3V.
func TestFigure11Cutoff(t *testing.T) {
	r := Figure11(testCfg())
	for i := 1; i < len(r.Cycled); i++ {
		if r.Cycled[i] < r.Cycled[i-1]-1e-9 {
			t.Fatal("RBER must not decrease with SSL center Vth")
		}
	}
	if r.Cutoff < 2.75 || r.Cutoff > 3.25 {
		t.Errorf("cutoff %.2fV, paper reports 3V", r.Cutoff)
	}
	// Below the cutoff reads are fine; far above they fail massively.
	if r.Cycled[0] > 1 {
		t.Error("1V center should not block reads")
	}
	if r.Cycled[len(r.Cycled)-1] < 5 {
		t.Error("5V center should fail catastrophically")
	}
	// A cycled block fails no later than a fresh one.
	for i := range r.Fresh {
		if r.Fresh[i] > r.Cycled[i]+1e-9 {
			t.Fatal("fresh block cannot be worse than a cycled one")
		}
	}
}

// Figure 12: region structure, reliability set, and the final point.
func TestFigure12DesignSpace(t *testing.T) {
	r := Figure12(testCfg())
	if len(r.Combos) != len(vth.BLockVoltages)*len(vth.BLockLatencies) {
		t.Fatalf("%d combos", len(r.Combos))
	}
	var regionI, candidates, reliable int
	for _, c := range r.Combos {
		switch c.Region {
		case RegionI:
			regionI++
		case RegionCandidate:
			candidates++
			if c.Reliable {
				reliable++
			}
		}
	}
	// Paper: Vb1..Vb4 fail to reach 3V (12 combos); Vb5/Vb6 are the six
	// candidates, of which (i),(ii),(iii) are reliable.
	if regionI != 12 {
		t.Errorf("Region I has %d combos, want 12", regionI)
	}
	if candidates != 6 {
		t.Errorf("%d candidates, want 6", candidates)
	}
	if reliable != 3 {
		t.Errorf("%d reliable candidates, paper reports 3 ((i),(ii),(iii))", reliable)
	}
	// Final choice: (ii) = (Vb6, 300µs).
	if r.Chosen.V != vth.BLockVoltages[5] || r.Chosen.T != 300 {
		t.Errorf("chosen (%.0fV, %.0fµs), paper selects (Vb6, 300µs)", r.Chosen.V, r.Chosen.T)
	}
	if got := (vth.OperatingPoint{V: r.Chosen.V, T: r.Chosen.T}); got != vth.BLockPoint {
		t.Errorf("chosen %+v, the chip locks blocks at vth.BLockPoint %+v", got, vth.BLockPoint)
	}
	// (i) = (Vb6,400µs) keeps the center above 4V for 5 years.
	for _, c := range r.Combos {
		if c.V == vth.BLockVoltages[5] && c.T == 400 && c.Center5y < 4 {
			t.Errorf("(Vb6,400) center at 5y %.2f, paper predicts > 4V", c.Center5y)
		}
		// (vi) = (Vb5,200µs) drops below 3V before one year.
		if c.V == vth.BLockVoltages[4] && c.T == 200 && c.Center1y >= 3 {
			t.Errorf("(Vb5,200) center at 1y %.2f, paper predicts < 3V", c.Center1y)
		}
	}
	// Candidate curves (Fig. 12(b)) decay monotonically.
	s := vth.DefaultSSLModel()
	for _, c := range r.Combos {
		if c.Region != RegionCandidate {
			continue
		}
		prev := c.ProgrammedCenter
		for _, d := range []float64{1, 10, 100, 365, 1000, 1825, 3650, 10000} {
			if now := s.CenterAfter(c.V, c.T, d); now > prev+1e-9 {
				t.Errorf("%.0fV/%.0fµs: SSL center rose over time", c.V, c.T)
			} else {
				prev = now
			}
		}
	}
}

func TestRegionString(t *testing.T) {
	if RegionI.String() != "region-I" || RegionII.String() != "region-II" || RegionCandidate.String() != "candidate" {
		t.Fatal("region names")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := Figure6(testCfg())
	b := Figure6(testCfg())
	if a.MLC[1].FracAboveLimit != b.MLC[1].FracAboveLimit {
		t.Fatal("Figure6 not deterministic under fixed seed")
	}
}

// §5.5: the paper's overhead claims.
func TestComputeOverhead(t *testing.T) {
	o := ComputeOverhead()
	if o.FlagCellsPerWL != 27 {
		t.Errorf("flag cells per WL = %d, paper uses 27", o.FlagCellsPerWL)
	}
	if o.SpareFraction > 0.01 {
		t.Errorf("flags take %.2f%% of the spare area; must be negligible", 100*o.SpareFraction)
	}
	if o.TpLockOverTprog >= 0.143 {
		t.Errorf("tpLock/tPROG = %.3f, paper: < 14.3%%", o.TpLockOverTprog)
	}
	if o.TbLockOverTbers >= 0.086+1e-9 {
		t.Errorf("tbLock/tBERS = %.3f, paper: < 8.6%%", o.TbLockOverTbers)
	}
	if o.MajorityTransistors != 200 || o.BridgeTransistors != 8 {
		t.Errorf("circuit overhead %+v", o)
	}
}

// Extension: the chosen operating points carry limited thermal margin —
// fine at the 30°C qualification point, degrading as storage runs hot.
func TestLockDurabilityVsTemperature(t *testing.T) {
	pts := LockDurabilityVsTemperature(nil)
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	if !pts[0].SSLHolds || pts[0].PAPMajorityFail5y > 1e-3 {
		t.Fatalf("locks must hold 5y at the 30°C qualification point: %+v", pts[0])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PAPMajorityFail5y < pts[i-1].PAPMajorityFail5y-1e-12 {
			t.Fatal("pAP failure probability must not drop with temperature")
		}
		if pts[i].SSLCenter5y > pts[i-1].SSLCenter5y+1e-12 {
			t.Fatal("SSL center must not rise with temperature")
		}
	}
	// At the 85°C extreme the acceleration is hundreds-fold: the 5-year
	// guarantee should visibly erode (failure probability far above the
	// 30°C value).
	if pts[len(pts)-1].PAPMajorityFail5y <= pts[0].PAPMajorityFail5y*10 {
		t.Fatal("85°C should erode the retention margin dramatically")
	}
}

// Monte-Carlo Fig. 9(d), on the draws the chip's flag programming
// makes: the chosen point keeps every sampled 9-cell majority intact over
// 5 years; the rejected corner flips most of them, with a mean cell loss
// that agrees with the closed form.
func TestSampleFlagRetention(t *testing.T) {
	const flags, k, days = 5000, 9, 5 * 365
	fm := vth.DefaultFlagModel()
	rng := rand.New(rand.NewSource(9))
	cells := make([]float64, k)
	sample := func(v, tp float64) (flips, worst int, mean float64) {
		for range flags {
			fm.SampleCells(cells, fm.MeanAfter(v, tp, days, 1000), rng)
			errs := 0
			for _, c := range cells {
				if c <= fm.ReadRef {
					errs++
				}
			}
			worst, mean = max(worst, errs), mean+float64(errs)/flags
			if !vthtest.MajorityReadsDisabled(fm, cells) {
				flips++
			}
		}
		return flips, worst, mean
	}
	if flips, worst, _ := sample(vth.PLockVoltages[3], 100); flips != 0 || worst > 4 {
		t.Errorf("chosen point: %d of %d majorities flipped over 5y, worst flag lost %d cells (majority needs <= 4)", flips, flags, worst)
	}
	flips, _, mean := sample(vth.PLockVoltages[1], 200)
	if flips < flags/2 {
		t.Errorf("rejected corner flipped %d of %d flags, should fail most", flips, flags)
	}
	if want := fm.ExpectedRetentionErrors(k, vth.PLockVoltages[1], 200, days, 1000); math.Abs(mean-want) > 0.3 {
		t.Errorf("Monte-Carlo mean %.2f vs closed form %.2f", mean, want)
	}
}
