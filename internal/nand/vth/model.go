package vth

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a threshold-voltage distribution: a Gaussian body plus an
// optional displaced Gaussian tail (probability TailProb shifted up by
// TailShift) that models over-programming outliers.
type Dist struct {
	Mean, Sigma          float64
	TailProb             float64
	TailShift, TailSigma float64
}

// CDF returns P(Vth <= x) under the mixture.
func (d Dist) CDF(x float64) float64 {
	body := phi((x - d.Mean) / d.Sigma)
	if d.TailProb <= 0 {
		return body
	}
	ts := d.TailSigma
	if ts <= 0 {
		ts = d.Sigma
	}
	tail := phi((x - d.Mean - d.TailShift) / ts)
	return (1-d.TailProb)*body + d.TailProb*tail
}

// ProbBetween returns P(a < Vth <= b).
func (d Dist) ProbBetween(a, b float64) float64 {
	return d.CDF(b) - d.CDF(a)
}

// Sample draws one Vth value, as the ECC margin test does per cell.
//
//repro:testseam
func (d Dist) Sample(rng *rand.Rand) float64 {
	if d.TailProb > 0 && rng.Float64() < d.TailProb {
		ts := d.TailSigma
		if ts <= 0 {
			ts = d.Sigma
		}
		return d.Mean + d.TailShift + rng.NormFloat64()*ts
	}
	return d.Mean + rng.NormFloat64()*d.Sigma
}

// phi is the standard normal CDF.
func phi(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// RetentionAcceleration returns the Arrhenius acceleration factor of
// charge loss at tempC relative to the 30°C JEDEC reference, using the
// conventional 1.1 eV activation energy for detrapping. 30°C maps to
// 1.0; 85°C (the JEDEC high-temperature condition) to several hundred.
func RetentionAcceleration(tempC float64) float64 {
	const (
		ea   = 1.1      // eV
		kB   = 8.617e-5 // eV/K
		tRef = 273.15 + 30.0
	)
	if tempC == 0 {
		return 1
	}
	t := 273.15 + tempC
	return math.Exp(ea / kB * (1/tRef - 1/t))
}

// effectiveRetentionDays converts a condition's wall-clock retention to
// 30°C-equivalent days.
func effectiveRetentionDays(c Condition) float64 {
	return c.RetentionDays * RetentionAcceleration(c.TempC)
}

// Condition captures the operating history that degrades cell reliability.
// The zero value is a fresh cell read immediately after programming.
type Condition struct {
	// PECycles is the number of program/erase cycles the block endured.
	PECycles int
	// RetentionDays is the time since programming, in days at 30°C
	// (the JEDEC commercial retention test condition the paper uses).
	RetentionDays float64
	// ReadDisturbs counts reads applied to neighbouring pages since
	// programming.
	ReadDisturbs int
	// ProgramDisturbs counts extra program pulses applied to the wordline
	// while the data cells were SBPI-inhibited (one per pLock issued on a
	// sibling page). DisturbV/DisturbT describe the pulse.
	ProgramDisturbs int
	DisturbV        float64 // program voltage of the disturbing pulse (V)
	DisturbT        float64 // pulse duration (µs)
	// OpenIntervalDays is the time the block stayed erased before this
	// program ("open interval", §5.4). Longer open intervals weaken the
	// tunnel-oxide interface and raise RBER.
	OpenIntervalDays float64
	// TempC is the storage temperature in °C; zero means the paper's
	// JEDEC reference of 30°C. Higher temperatures accelerate charge
	// loss following the Arrhenius law (see RetentionAcceleration).
	TempC float64
	// WLVariation is a per-wordline process-variation factor, typically
	// drawn from Model.SampleWLVariation. 0 means a nominal wordline;
	// positive values degrade, negative improve.
	WLVariation float64
}

// Params are the calibration constants of the noise model. All defaults
// are chosen so that the paper's qualitative thresholds hold (see
// DESIGN.md §7); they are exported so the ablation benches can perturb
// them.
type Params struct {
	// P/E cycling: fractional sigma widening per 1000 cycles and erased
	// state upward mean shift (V) per 1000 cycles.
	PESigma float64
	PEShift float64
	// Retention: mean downshift coefficient (V per decade of days, scaled
	// by the state's programmed level) and sigma widening per decade.
	RetShift   float64
	RetSigma   float64
	RetDay0    float64 // onset of retention loss, days
	RetPEBoost float64 // extra retention loss per 1000 P/E cycles (fraction)
	// Read disturb: erased-state upward shift (V) per 10k reads.
	ReadShift float64
	// Program disturb (SBPI-inhibited cells during pLock): erased-state
	// upward shift per pulse = PDK * max(0, V - PDV0)^2 * (t/100µs).
	PDK  float64
	PDV0 float64
	// Open interval: erased-state sigma widening fraction per decade of
	// open-interval days, boosted by P/E wear.
	OISigma float64
	OIDay0  float64
	// OSR (one-shot reprogram) over-programming: base tail probability and
	// the lognormal spread of the per-WL tail (process variation).
	OSRSigma     float64 // sigma of the reprogrammed distribution
	OSRTailProb  float64
	OSRTailShift float64
	OSRTailSigma float64
	// OSRRetBoost multiplies retention widening on reprogrammed (one-shot,
	// unverified) distributions, which lose charge faster than normally
	// programmed cells.
	OSRRetBoost float64
	// WLSigma is the std-dev of the per-wordline variation factor.
	WLSigma float64
}

// DefaultParams returns the calibrated constants.
func DefaultParams() Params {
	return Params{
		PESigma:      0.10,
		PEShift:      0.06,
		RetShift:     0.030,
		RetSigma:     0.030,
		RetDay0:      1.0,
		RetPEBoost:   0.50,
		ReadShift:    0.02,
		PDK:          0.028,
		PDV0:         16.0,
		OISigma:      0.05,
		OIDay0:       0.01,
		OSRSigma:     0.19,
		OSRTailProb:  0.012,
		OSRTailShift: 1.10,
		OSRTailSigma: 0.40,
		OSRRetBoost:  2.5,
		WLSigma:      0.50,
	}
}

// Model is the Vth model of one cell technology: nominal state
// distributions, read reference voltages, and noise parameters.
type Model struct {
	Kind   CellKind
	Means  []float64 // nominal state means, index = state
	Sigmas []float64 // nominal state sigmas
	Refs   []float64 // read references, Refs[i] between state i and i+1
	Params Params
	// ECCLimitRBER is the raw-bit-error-rate correction capability used
	// to normalize reported RBER (the paper's "ECC limit" line at 1.0).
	ECCLimitRBER float64
}

// ECCLimitRBER is the ECC limit of the paper's TLC chip, 72 correctable
// bits per 1-KiB codeword, as a raw bit-error rate: the line at 1.0 on
// the paper's normalized-RBER axes, and the bound past which the device's
// reads are uncorrectable.
const ECCLimitRBER = 72.0 / 8192.0

// NewTLC returns the calibrated model of the paper's 48-layer 3D TLC chip.
func NewTLC() *Model {
	means := []float64{-2.0, 0.6, 1.3, 2.0, 2.7, 3.4, 4.1, 4.8}
	sigmas := []float64{0.42, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125}
	return &Model{
		Kind:         TLC,
		Means:        means,
		Sigmas:       sigmas,
		Refs:         midpoints(means),
		Params:       DefaultParams(),
		ECCLimitRBER: ECCLimitRBER,
	}
}

// NewMLC returns the calibrated model of a 3D MLC chip.
func NewMLC() *Model {
	means := []float64{-2.0, 1.0, 2.6, 4.2}
	sigmas := []float64{0.45, 0.17, 0.17, 0.17}
	return &Model{
		Kind:         MLC,
		Means:        means,
		Sigmas:       sigmas,
		Refs:         midpoints(means),
		Params:       DefaultParams(),
		ECCLimitRBER: 40.0 / 8192.0,
	}
}

func midpoints(means []float64) []float64 {
	refs := make([]float64, len(means)-1)
	for i := range refs {
		refs[i] = (means[i] + means[i+1]) / 2
	}
	return refs
}

// SampleWLVariation draws a per-wordline process variation factor.
func (m *Model) SampleWLVariation(rng *rand.Rand) float64 {
	return rng.NormFloat64() * m.Params.WLSigma
}

// StateDist returns the Vth distribution of state s under condition c.
func (m *Model) StateDist(s int, c Condition) Dist {
	if s < 0 || s >= len(m.Means) {
		panic(fmt.Sprintf("vth: state %d out of range", s))
	}
	p := m.Params
	mean := m.Means[s]
	sigma := m.Sigmas[s]
	wl := math.Exp(c.WLVariation * 0.25) // mild lognormal per-WL severity

	kc := float64(c.PECycles) / 1000.0
	// P/E cycling widens every state and lifts the erased state.
	sigma *= 1 + p.PESigma*kc*wl
	if s == 0 {
		mean += p.PEShift * kc
	}

	// Retention: programmed states drift down proportionally to their
	// level above erase; all states widen. P/E wear accelerates loss and
	// temperature accelerates it further (Arrhenius).
	if c.RetentionDays > 0 && s > 0 {
		decades := math.Log10(1 + effectiveRetentionDays(c)/p.RetDay0)
		level := (m.Means[s] - m.Means[0]) / (m.Means[len(m.Means)-1] - m.Means[0])
		boost := 1 + p.RetPEBoost*kc*math.Sqrt(kc)
		mean -= p.RetShift * level * decades * boost * wl
		sigma *= 1 + p.RetSigma*decades*boost*wl
	}

	// Read disturb lifts the erased state slightly.
	if s == 0 && c.ReadDisturbs > 0 {
		mean += p.ReadShift * float64(c.ReadDisturbs) / 10000.0
	}

	// Program disturb from pLock pulses on the same WL (data inhibited).
	if s == 0 && c.ProgramDisturbs > 0 {
		over := c.DisturbV - p.PDV0
		if over > 0 {
			mean += p.PDK * over * over * (c.DisturbT / 100.0) * float64(c.ProgramDisturbs)
		}
	}

	// Open interval widens the erased state (weak erased interface).
	if s == 0 && c.OpenIntervalDays > 0 {
		decades := math.Log10(1 + c.OpenIntervalDays/p.OIDay0)
		sigma *= 1 + p.OISigma*decades*(1+0.5*kc)
	}

	return Dist{Mean: mean, Sigma: sigma}
}

// PageRBER returns the raw bit-error rate of page kind pk under condition
// c, assuming uniformly distributed written data (each state equally
// likely). It integrates, for each written state, the probability mass
// landing in read intervals whose decoded bit differs.
func (m *Model) PageRBER(pk PageKind, c Condition) float64 {
	dists := make([]Dist, len(m.Means))
	for s := range dists {
		dists[s] = m.StateDist(s, c)
	}
	return m.rberFromDists(pk, dists)
}

// rberFromDists computes the page RBER for explicit per-state
// distributions (used by the OSR experiments, which replace some states'
// distributions with reprogrammed ones).
func (m *Model) rberFromDists(pk PageKind, dists []Dist) float64 {
	nStates := len(m.Means)
	var total float64
	for s := 0; s < nStates; s++ {
		want := BitOf(m.Kind, s, pk)
		var errProb float64
		for iv := 0; iv < nStates; iv++ {
			if BitOf(m.Kind, iv, pk) == want {
				continue
			}
			lo, hi := m.intervalBounds(iv)
			errProb += dists[s].ProbBetween(lo, hi)
		}
		total += errProb
	}
	return total / float64(nStates)
}

// intervalBounds returns the Vth interval decoded as state iv.
func (m *Model) intervalBounds(iv int) (lo, hi float64) {
	const inf = 1e9
	lo, hi = -inf, inf
	if iv > 0 {
		lo = m.Refs[iv-1]
	}
	if iv < len(m.Refs) {
		hi = m.Refs[iv]
	}
	return lo, hi
}

// NormalizedPageRBER returns PageRBER divided by the ECC limit, matching
// the paper's normalized-RBER axes (1.0 = correction capability).
func (m *Model) NormalizedPageRBER(pk PageKind, c Condition) float64 {
	return m.PageRBER(pk, c) / m.ECCLimitRBER
}

// OSR models the one-shot reprogram sanitization of §4 (Fig. 5): for each
// page in sanitize (applied in order, one pulse each), every state whose
// bit on that page is '1' is programmed up to the position of the next
// higher state whose bit is '0', destroying the bit. States with no
// higher '0' state are left in place, exactly as in the paper's Fig. 5
// where only the E state moves.
//
// The reprogrammed distributions carry an over-programming tail whose
// weight varies per wordline (process variation, Condition.WLVariation);
// tails accumulate across pulses. It returns the per-state distributions
// (indexed by the originally written state) plus a moved mask.
func (m *Model) OSR(c Condition, sanitize []PageKind) ([]Dist, []bool) {
	p := m.Params
	dists := make([]Dist, len(m.Means))
	moved := make([]bool, len(m.Means))
	for s := range dists {
		dists[s] = m.StateDist(s, c)
	}
	// Per-WL over-programming severity: lognormal in the WL variation.
	tailProb := p.OSRTailProb * math.Exp(c.WLVariation)
	if tailProb > 0.5 {
		tailProb = 0.5
	}

	for _, pk := range sanitize {
		for s := 0; s < len(dists); s++ {
			if BitOf(m.Kind, s, pk) != 1 {
				continue
			}
			target := -1
			for t := s + 1; t < len(dists); t++ {
				if BitOf(m.Kind, t, pk) == 0 {
					target = t
					break
				}
			}
			if target < 0 {
				continue // top group: a one-shot pulse cannot destroy it
			}
			mean := m.Means[target]
			if dists[s].Mean > mean {
				mean = dists[s].Mean // never program downwards
			}
			tp := tailProb
			if moved[s] {
				// Second pulse on already-moved cells compounds the tail.
				tp = 1 - (1-dists[s].TailProb)*(1-tailProb)
			}
			dists[s] = Dist{
				Mean:      mean,
				Sigma:     p.OSRSigma,
				TailProb:  tp,
				TailShift: p.OSRTailShift,
				TailSigma: p.OSRTailSigma,
			}
			moved[s] = true
		}
	}
	return dists, moved
}

// OSRPageRBER returns the RBER of page pk after OSR-sanitizing the pages
// in sanitize, under condition c. Retention in c is applied after the
// reprogram; one-shot reprogrammed (unverified) cells lose charge faster
// (Params.OSRRetBoost), which reproduces the paper's "after retention"
// boxes.
func (m *Model) OSRPageRBER(pk PageKind, c Condition, sanitize []PageKind) float64 {
	// Build the post-OSR distributions at the moment of reprogram
	// (retention applies afterwards).
	atReprogram := c
	atReprogram.RetentionDays = 0
	dists, moved := m.OSR(atReprogram, sanitize)
	if c.RetentionDays > 0 {
		p := m.Params
		kc := float64(c.PECycles) / 1000.0
		decades := math.Log10(1 + effectiveRetentionDays(c)/p.RetDay0)
		boost := 1 + p.RetPEBoost*kc*math.Sqrt(kc)
		wl := math.Exp(c.WLVariation * 0.25)
		span := m.Means[len(m.Means)-1] - m.Means[0]
		for s := range dists {
			if s == 0 && !moved[s] {
				continue // erased cells do not lose charge
			}
			level := (dists[s].Mean - m.Means[0]) / span
			if level < 0 {
				level = 0
			}
			osr := 1.0
			if moved[s] {
				osr = p.OSRRetBoost
			}
			dists[s].Mean -= p.RetShift * level * decades * boost * wl * osr
			dists[s].Sigma *= 1 + p.RetSigma*decades*boost*wl*osr
		}
	}
	return m.rberFromDists(pk, dists)
}
