package vth

import (
	"math"
	"math/rand"
)

// PLockVoltage enumerates the Ψ axis of the pLock design space (§5.3):
// five one-shot program voltages Vp1..Vp5 spaced 0.5 V apart. The absolute
// values are below the normal >20 V program voltage, matching the paper's
// "lower program voltage" requirement.
var PLockVoltages = []float64{15.5, 16.0, 16.5, 17.0, 17.5}

// PLockLatencies is the T axis of the pLock design space, in µs.
var PLockLatencies = []float64{100, 150, 200}

// BLockVoltages is the Ψ axis of the bLock design space: Vb1..Vb6 spaced
// 1.0 V apart.
var BLockVoltages = []float64{16, 17, 18, 19, 20, 21}

// BLockLatencies is the T axis of the bLock design space, in µs.
var BLockLatencies = []float64{200, 300, 400}

// OperatingPoint is one (program voltage, pulse duration) combination of
// a lock design space.
type OperatingPoint struct {
	V float64 // program voltage, V
	T float64 // pulse duration, µs
}

// PLockPoint is the pLock operating point the §5.3 exploration picks,
// combination (ii) of Fig. 9: (Vp4, 100 µs). Its pulse is tpLock.
var PLockPoint = OperatingPoint{V: PLockVoltages[3], T: PLockLatencies[0]}

// BLockPoint is the bLock operating point the §5.4 exploration picks,
// combination (ii) of Fig. 12: (Vb6, 300 µs). Its pulse is tbLock.
var BLockPoint = OperatingPoint{V: BLockVoltages[5], T: BLockLatencies[1]}

// FlagCells is k, the spare cells backing one pAP flag that a majority
// circuit reads (§5.3 picks k = 9).
const FlagCells = 9

// FlagModel describes the SLC flag cells that implement the per-page pAP
// flags in the spare area of a wordline. A flag cell is "programmed"
// (disabled state) when its Vth exceeds ReadRef.
type FlagModel struct {
	// ReadRef is the SLC read reference voltage separating the enabled
	// (erased) and disabled (programmed) flag states.
	ReadRef float64
	// Sigma is the programmed-distribution standard deviation.
	Sigma float64
	// MuBase is the programmed mean at (V = Vp1, t = 100 µs); the paper's
	// measured 47.3 % success rate for that corner pins this value just
	// below ReadRef.
	MuBase float64
	// VGain is the mean gain per volt of program voltage above Vp1.
	VGain float64
	// TGain is the mean gain per doubling of the pulse duration over 100 µs.
	TGain float64
	// RetBase/RetVSlope control charge loss: the programmed mean decays by
	// (RetBase - RetVSlope*(V-Vp1)) * log10(1+days) — cells programmed at
	// higher voltage trap charge more deeply and retain it better.
	RetBase   float64
	RetVSlope float64
	// PEBoost accelerates retention loss per 1000 P/E cycles (fraction).
	PEBoost float64
}

// DefaultFlagModel returns the calibrated pAP flag-cell model.
func DefaultFlagModel() FlagModel {
	return FlagModel{
		ReadRef:   1.0,
		Sigma:     0.30,
		MuBase:    0.98, // 47.3 % success at (Vp1, 100 µs)
		VGain:     0.90,
		TGain:     0.90,
		RetBase:   0.51,
		RetVSlope: 0.18,
		PEBoost:   0.10,
	}
}

// ProgrammedMean returns the mean Vth right after a one-shot flag program
// with voltage v (V) and duration t (µs).
func (f FlagModel) ProgrammedMean(v, t float64) float64 {
	return f.MuBase + f.VGain*(v-PLockVoltages[0]) + f.TGain*math.Log2(t/100)
}

// MeanAfter returns the mean Vth after days of retention at 30 °C for a
// flag programmed with (v, t) on a block with peCycles P/E cycles.
func (f FlagModel) MeanAfter(v, t, days float64, peCycles int) float64 {
	mu := f.ProgrammedMean(v, t)
	if days <= 0 {
		return mu
	}
	rate := f.RetBase - f.RetVSlope*(v-PLockVoltages[0])
	if rate < 0.02 {
		rate = 0.02
	}
	rate *= 1 + f.PEBoost*float64(peCycles)/1000
	return mu - rate*math.Log10(1+days)
}

// ProgramSuccessProb returns the probability that a single flag cell reads
// as programmed immediately after a one-shot pulse with (v, t).
func (f FlagModel) ProgramSuccessProb(v, t float64) float64 {
	return 1 - phi((f.ReadRef-f.ProgrammedMean(v, t))/f.Sigma)
}

// RetentionErrorProb returns the probability that a programmed flag cell
// has decayed below the read reference after days of retention.
func (f FlagModel) RetentionErrorProb(v, t, days float64, peCycles int) float64 {
	return phi((f.ReadRef - f.MeanAfter(v, t, days, peCycles)) / f.Sigma)
}

// SampleCells fills dst with the Vths of the cells one flag program
// charges, given their shared mean (ProgrammedMean right after the
// pulse, MeanAfter once retention has set in): the mean plus one normal
// draw per cell.
func (f FlagModel) SampleCells(dst []float64, mean float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = mean + rng.NormFloat64()*f.Sigma
	}
}

// MajorityFailureProb returns the probability that a k-cell majority vote
// mis-reads a programmed (disabled) flag as enabled after retention: at
// least ceil(k/2) of the k cells must have decayed below the reference.
// It evaluates the binomial tail exactly.
func (f FlagModel) MajorityFailureProb(k int, v, t, days float64, peCycles int) float64 {
	p := f.RetentionErrorProb(v, t, days, peCycles)
	need := k/2 + 1 // cells that must fail for the majority to flip
	var total float64
	for i := need; i <= k; i++ {
		total += binomPMF(k, i, p)
	}
	return total
}

// ExpectedRetentionErrors returns the expected number of failed cells out
// of k after retention.
func (f FlagModel) ExpectedRetentionErrors(k int, v, t, days float64, peCycles int) float64 {
	return float64(k) * f.RetentionErrorProb(v, t, days, peCycles)
}

func binomPMF(n, k int, p float64) float64 {
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	// log-space for numerical stability
	lg := lnChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lg)
}

func lnChoose(n, k int) float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(k + 1))
	lgNK, _ := math.Lgamma(float64(n - k + 1))
	return lgN - lgK - lgNK
}

// SSLModel describes the source-select-line cells used as the per-block
// bAP flag (§5.4). bLock programs the SSL like a normal wordline; when the
// SSL center Vth exceeds the select-gate bias, the block's bitline current
// is cut and every page reads all-zero.
type SSLModel struct {
	// SelectBias is the gate voltage applied to the SSL of the selected
	// block during a read. An SSL cell with Vth above it stays off.
	SelectBias float64
	// Sigma is the SSL-cell Vth spread.
	Sigma float64
	// MuBase is the center Vth right after a one-shot program at
	// (Vb1, 200 µs).
	MuBase float64
	// VGainPow: center gain = VGain * (V - Vb1)^1.5 (super-linear because
	// FN tunnelling current grows steeply with field strength).
	VGain float64
	// TGain is the gain per doubling of pulse duration over 200 µs.
	TGain float64
	// Retention decay: rate = RetBase - RetV*(V-Vb1) - RetT*log2(t/200),
	// applied as rate * log10(1+days).
	RetBase float64
	RetV    float64
	RetT    float64
	// DisableThreshold is the center Vth above which a block is considered
	// sanitized (the paper's 3 V line in Fig. 11(b)).
	DisableThreshold float64
}

// DefaultSSLModel returns the calibrated SSL model.
func DefaultSSLModel() SSLModel {
	return SSLModel{
		SelectBias:       3.79,
		Sigma:            0.35,
		MuBase:           0.50,
		VGain:            0.32,
		TGain:            0.40,
		RetBase:          0.49,
		RetV:             0.03,
		RetT:             0.235,
		DisableThreshold: 3.0,
	}
}

// ProgrammedCenter returns the SSL center Vth right after a one-shot
// program with voltage v (V) and duration t (µs).
func (s SSLModel) ProgrammedCenter(v, t float64) float64 {
	dv := v - BLockVoltages[0]
	if dv < 0 {
		dv = 0
	}
	return s.MuBase + s.VGain*math.Pow(dv, 1.5) + s.TGain*math.Log2(t/200)
}

// CenterAfter returns the SSL center Vth after days of retention.
func (s SSLModel) CenterAfter(v, t, days float64) float64 {
	mu := s.ProgrammedCenter(v, t)
	if days <= 0 {
		return mu
	}
	rate := s.RetBase - s.RetV*(v-BLockVoltages[0]) - s.RetT*math.Log2(t/200)
	if rate < 0.02 {
		rate = 0.02
	}
	return mu - rate*math.Log10(1+days)
}

// OffProb returns the probability that one SSL cell fails to conduct
// during a read, given the SSL center Vth.
func (s SSLModel) OffProb(center float64) float64 {
	return 1 - phi((s.SelectBias-center)/s.Sigma)
}

// BlockReadRBER returns the raw bit-error rate of reading any page in a
// block whose SSL center Vth is center, on top of the page's intrinsic
// RBER base. A cut-off bitline reads '0'; on average half of the stored
// bits are '1', so each off cell contributes 0.5 errors.
func (s SSLModel) BlockReadRBER(center, baseRBER float64) float64 {
	off := s.OffProb(center)
	// Off bitlines always read 0; surviving bitlines keep the base RBER.
	return off*0.5 + (1-off)*baseRBER
}

// MajorityFailureProbAtTemp evaluates the k-cell majority flip chance at
// a storage temperature.
func (f FlagModel) MajorityFailureProbAtTemp(k int, v, t, days float64, peCycles int, tempC float64) float64 {
	return f.MajorityFailureProb(k, v, t, days*RetentionAcceleration(tempC), peCycles)
}

// CenterAfterAtTemp is CenterAfter with Arrhenius-accelerated retention.
func (s SSLModel) CenterAfterAtTemp(v, t, days, tempC float64) float64 {
	return s.CenterAfter(v, t, days*RetentionAcceleration(tempC))
}
