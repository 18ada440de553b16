// Package chipchar reproduces the paper's chip-level characterization
// campaign (§4, §5.3, §5.4) on the vth cell model:
//
//	Figure 6     — RBER of MSB pages under one-shot reprogram (OSR)
//	Figure 9     — pLock design-space exploration
//	Figure 10    — RBER vs. open-interval length
//	Figure 11(b) — block read RBER vs. SSL center Vth
//	Figure 12    — bLock design-space exploration
//
// The paper measures 160 real 48-layer chips (3,686,400 wordlines); here
// each experiment samples a configurable wordline population from the
// calibrated statistical model and reports the same statistics the
// figures plot.
package chipchar

import (
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/nand/vth"
	"repro/internal/parallel"
)

// Config sizes the sampled populations.
type Config struct {
	// WLs is the number of wordlines sampled per scenario (the paper
	// tests 3.69M; the default CLI uses 20k, tests less).
	WLs  int
	Seed int64
	// Workers bounds the Monte-Carlo fan-out (<= 0: one per CPU). The
	// result is bit-identical for every worker count: sampling is split
	// into fixed-width wordline shards with per-shard RNGs derived from
	// Seed, and the partial samples are merged in shard order.
	Workers int
}

// shardWLs is the fixed shard width of the Monte-Carlo campaigns. It is
// a property of the sampling scheme, not of the machine: the shard
// layout (and therefore every drawn value) depends only on WLs and Seed,
// never on the worker count.
const shardWLs = 512

// shardRange returns shard s's wordline interval [lo, hi).
func shardRange(s, wls int) (lo, hi int) {
	lo = s * shardWLs
	hi = lo + shardWLs
	if hi > wls {
		hi = wls
	}
	return lo, hi
}

func numShards(wls int) int { return (wls + shardWLs - 1) / shardWLs }

// mix64 is the splitmix64 finalizer, used to derive well-separated
// per-shard seeds from (Seed, stream, shard).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// shardSeed derives the RNG seed of one shard of one sampling stream
// (streams keep e.g. Figure 6's MLC and TLC populations independent).
func shardSeed(seed int64, stream, shard uint64) int64 {
	z := mix64(uint64(seed) + 0x9E3779B97F4A7C15*(stream+1))
	return int64(mix64(z + 0x9E3779B97F4A7C15*(shard+1)))
}

func shardRNG(seed int64, stream, shard uint64) *rand.Rand {
	return rand.New(rand.NewSource(shardSeed(seed, stream, shard)))
}

// ---------------------------------------------------------------------
// Figure 6 — OSR reliability
// ---------------------------------------------------------------------

// Fig6Box is one box plot of Fig. 6: the distribution of per-wordline
// normalized MSB RBER under a condition, plus the fraction of wordlines
// beyond the ECC limit (normalized RBER > 1).
type Fig6Box struct {
	Label          string
	Box            metrics.BoxStats
	FracAboveLimit float64
}

// Fig6Result groups the three boxes per cell technology.
type Fig6Result struct {
	MLC []Fig6Box // Initial, AfterOSR(LSB), AfterRetention
	TLC []Fig6Box // Initial, AfterOSR(LSB+CSB), AfterRetention
}

// Figure6 reproduces Fig. 6: program a wordline population, OSR-sanitize
// sibling pages, and measure MSB-page RBER initially, right after OSR,
// and after a 1-year retention at the technology's rated endurance
// (3K P/E for MLC, 1K for TLC). The population is sampled in fixed-width
// wordline shards (see shardWLs) so the campaign parallelizes without
// changing a single drawn value.
func Figure6(cfg Config) Fig6Result {
	sample := func(stream uint64, newModel func() *vth.Model, pe int, sanitize []vth.PageKind) []Fig6Box {
		type partial struct {
			init, osr, ret []float64
		}
		// fn never fails, so Map cannot return an error here.
		parts, _ := parallel.Map(cfg.Workers, numShards(cfg.WLs), func(s int) (partial, error) {
			// Per-shard model and RNG: nothing is shared across workers.
			m := newModel()
			rng := shardRNG(cfg.Seed, stream, uint64(s))
			lo, hi := shardRange(s, cfg.WLs)
			p := partial{
				init: make([]float64, 0, hi-lo),
				osr:  make([]float64, 0, hi-lo),
				ret:  make([]float64, 0, hi-lo),
			}
			for i := lo; i < hi; i++ {
				c := vth.Condition{PECycles: pe, WLVariation: m.SampleWLVariation(rng)}
				p.init = append(p.init, m.NormalizedPageRBER(vth.MSB, c))
				p.osr = append(p.osr, m.OSRPageRBER(vth.MSB, c, sanitize)/m.ECCLimitRBER)
				cr := c
				cr.RetentionDays = 365
				p.ret = append(p.ret, m.OSRPageRBER(vth.MSB, cr, sanitize)/m.ECCLimitRBER)
			}
			return p, nil
		})
		var init, osr, ret metrics.Sample
		init.Reserve(cfg.WLs)
		osr.Reserve(cfg.WLs)
		ret.Reserve(cfg.WLs)
		for _, p := range parts {
			init.AddAll(p.init...)
			osr.AddAll(p.osr...)
			ret.AddAll(p.ret...)
		}
		mk := func(label string, s *metrics.Sample) Fig6Box {
			return Fig6Box{Label: label, Box: s.Box(), FracAboveLimit: s.FractionAbove(1)}
		}
		return []Fig6Box{
			mk("initial", &init),
			mk("after-OSR", &osr),
			mk("after-retention", &ret),
		}
	}
	return Fig6Result{
		MLC: sample(0, vth.NewMLC, 3000, []vth.PageKind{vth.LSB}),
		TLC: sample(1, vth.NewTLC, 1000, []vth.PageKind{vth.LSB, vth.CSB}),
	}
}

// ---------------------------------------------------------------------
// Figure 9 — pLock design space
// ---------------------------------------------------------------------

// Region classifies a design-space combination.
type Region int

const (
	// RegionCandidate combinations survive both elimination passes.
	RegionCandidate Region = iota
	// RegionI combinations disturb the data cells too much (§5.3 Fig 9b).
	RegionI
	// RegionII combinations cannot program the flag cells reliably
	// (§5.3 Fig 9c).
	RegionII
)

func (r Region) String() string {
	switch r {
	case RegionCandidate:
		return "candidate"
	case RegionI:
		return "region-I"
	case RegionII:
		return "region-II"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Fig9Combo is one (voltage, latency) grid point with its measurements.
type Fig9Combo struct {
	V, T float64
	// DisturbRatio is the data-cell RBER with one pLock pulse divided by
	// the undisturbed RBER (Fig. 9(b)).
	DisturbRatio float64
	// FlagSuccess is the single-cell programming success rate (Fig. 9(c)).
	FlagSuccess float64
	// RetErrors5y is the expected failed cells out of k after 5 years'
	// retention at 1K P/E (Fig. 9(d)).
	RetErrors5y float64
	// MajorityFail5y is the probability the k-cell majority flips within
	// 5 years.
	MajorityFail5y float64
	Region         Region
}

// Fig9Result is the full exploration outcome.
type Fig9Result struct {
	Combos []Fig9Combo
	// Chosen is the paper's final operating point: among candidates that
	// hold the majority for 5 years, the one with the shortest latency
	// (ties broken by lower voltage) — combination (ii), vth.PLockPoint.
	Chosen Fig9Combo
	// RetentionDays/RetentionErrs give the Fig. 9(d) curves for every
	// candidate: errors vs. days.
	RetentionDays []float64
	RetentionErrs map[string][]float64 // key "V/t"
}

// Fig9DisturbThreshold is the normalized-RBER increase above which a
// combination lands in Region I.
const Fig9DisturbThreshold = 1.09

// Fig9SuccessThreshold is the flag-programming success below which a
// combination lands in Region II.
const Fig9SuccessThreshold = 0.999

// Figure9 runs the pLock design-space exploration.
func Figure9(cfg Config) Fig9Result {
	m := vth.NewTLC()
	fm := vth.DefaultFlagModel()
	base := m.PageRBER(vth.LSB, vth.Condition{PECycles: 1000})

	days := []float64{1, 10, 100, 365, 1000, 1825, 3650, 10000}
	res := Fig9Result{
		RetentionDays: days,
		RetentionErrs: map[string][]float64{},
	}
	for _, v := range vth.PLockVoltages {
		for _, t := range vth.PLockLatencies {
			c := Fig9Combo{V: v, T: t}
			disturbed := m.PageRBER(vth.LSB, vth.Condition{
				PECycles: 1000, ProgramDisturbs: 1, DisturbV: v, DisturbT: t,
			})
			c.DisturbRatio = disturbed / base
			c.FlagSuccess = fm.ProgramSuccessProb(v, t)
			c.RetErrors5y = fm.ExpectedRetentionErrors(vth.FlagCells, v, t, 5*365, 1000)
			c.MajorityFail5y = fm.MajorityFailureProb(vth.FlagCells, v, t, 5*365, 1000)
			switch {
			case c.DisturbRatio > Fig9DisturbThreshold:
				c.Region = RegionI
			case c.FlagSuccess < Fig9SuccessThreshold:
				c.Region = RegionII
			default:
				c.Region = RegionCandidate
				key := comboKey(v, t)
				curve := make([]float64, len(days))
				for i, d := range days {
					curve[i] = fm.ExpectedRetentionErrors(vth.FlagCells, v, t, d, 1000)
				}
				res.RetentionErrs[key] = curve
			}
			res.Combos = append(res.Combos, c)
		}
	}
	res.Chosen = chooseFig9(res.Combos)
	return res
}

func comboKey(v, t float64) string { return fmt.Sprintf("%.1fV/%.0fµs", v, t) }

// chooseFig9 applies the paper's selection rule: a reliable candidate
// (majority survives 5 years with margin) with the shortest tpLock.
func chooseFig9(combos []Fig9Combo) Fig9Combo {
	var best Fig9Combo
	found := false
	for _, c := range combos {
		if c.Region != RegionCandidate {
			continue
		}
		// Reliability requirement: under half the cells may fail in
		// expectation over 5 years, with a vanishing majority-flip chance.
		if c.RetErrors5y > float64(vth.FlagCells)/2-1.5 || c.MajorityFail5y > 1e-3 {
			continue
		}
		if !found || c.T < best.T || (c.T == best.T && c.V < best.V) {
			best, found = c, true
		}
	}
	return best
}

// ---------------------------------------------------------------------
// Figure 10 — open interval
// ---------------------------------------------------------------------

// Fig10Bucket labels the paper's qualitative interval lengths with the
// model's open-interval durations (days a block stays erased).
type Fig10Bucket struct {
	Label string
	Days  float64
}

// Fig10Buckets mirrors the x-axis of Fig. 10.
func Fig10Buckets() []Fig10Bucket {
	return []Fig10Bucket{
		{"zero", 0},
		{"very-short", 0.001},
		{"short", 0.01},
		{"medium", 0.1},
		{"long", 1},
		{"very-long", 10},
	}
}

// Fig10Result holds the three lines of Fig. 10, normalized to the ECC
// limit.
type Fig10Result struct {
	Buckets []Fig10Bucket
	NoPE    []float64
	PE      []float64
	PERet   []float64
}

// Figure10 sweeps the open-interval length under the paper's three
// conditions.
func Figure10(cfg Config) Fig10Result {
	m := vth.NewTLC()
	res := Fig10Result{Buckets: Fig10Buckets()}
	for _, b := range res.Buckets {
		res.NoPE = append(res.NoPE, m.NormalizedPageRBER(vth.LSB,
			vth.Condition{OpenIntervalDays: b.Days}))
		res.PE = append(res.PE, m.NormalizedPageRBER(vth.LSB,
			vth.Condition{OpenIntervalDays: b.Days, PECycles: 1000}))
		res.PERet = append(res.PERet, m.NormalizedPageRBER(vth.LSB,
			vth.Condition{OpenIntervalDays: b.Days, PECycles: 1000, RetentionDays: 365}))
	}
	return res
}

// ---------------------------------------------------------------------
// Figure 11(b) — SSL cutoff
// ---------------------------------------------------------------------

// Fig11Result holds normalized block-read RBER vs. SSL center Vth for
// fresh and cycled blocks, and the cutoff where reads start failing.
type Fig11Result struct {
	Centers []float64
	Fresh   []float64
	Cycled  []float64
	// Cutoff is the lowest swept center Vth at which the cycled block's
	// normalized RBER exceeds 1.0 (the paper reports 3 V).
	Cutoff float64
}

// Figure11 sweeps the SSL center Vth from 1 V to 5 V.
func Figure11(cfg Config) Fig11Result {
	m := vth.NewTLC()
	s := vth.DefaultSSLModel()
	baseFresh := m.PageRBER(vth.MSB, vth.Condition{})
	baseCycled := m.PageRBER(vth.MSB, vth.Condition{PECycles: 1000})
	res := Fig11Result{}
	for c := 1.0; c <= 5.0+1e-9; c += 0.25 {
		res.Centers = append(res.Centers, c)
		res.Fresh = append(res.Fresh, s.BlockReadRBER(c, baseFresh)/m.ECCLimitRBER)
		cycled := s.BlockReadRBER(c, baseCycled) / m.ECCLimitRBER
		res.Cycled = append(res.Cycled, cycled)
		if res.Cutoff == 0 && cycled > 1 {
			res.Cutoff = c
		}
	}
	return res
}

// ---------------------------------------------------------------------
// Figure 12 — bLock design space
// ---------------------------------------------------------------------

// Fig12Combo is one (voltage, latency) grid point of the bLock space.
type Fig12Combo struct {
	V, T float64
	// ProgrammedCenter is the SSL center Vth right after the one-shot
	// program; combinations below the 3 V disable threshold form
	// Region I.
	ProgrammedCenter float64
	// Center1y/5y give the retention trajectory.
	Center1y, Center5y float64
	Region             Region
	// Reliable means the center stays above the disable threshold for
	// the full 5-year requirement.
	Reliable bool
}

// Fig12Result is the exploration outcome.
type Fig12Result struct {
	Combos []Fig12Combo
	// Chosen is the reliable candidate with the shortest tbLock —
	// combination (ii), vth.BLockPoint.
	Chosen Fig12Combo
}

// Figure12 runs the bLock design-space exploration.
func Figure12(cfg Config) Fig12Result {
	s := vth.DefaultSSLModel()
	var res Fig12Result
	for _, v := range vth.BLockVoltages {
		for _, t := range vth.BLockLatencies {
			c := Fig12Combo{V: v, T: t}
			c.ProgrammedCenter = s.ProgrammedCenter(v, t)
			c.Center1y = s.CenterAfter(v, t, 365)
			c.Center5y = s.CenterAfter(v, t, 5*365)
			if c.ProgrammedCenter < s.DisableThreshold {
				c.Region = RegionI
			} else {
				c.Region = RegionCandidate
				c.Reliable = c.Center5y >= s.DisableThreshold
			}
			res.Combos = append(res.Combos, c)
		}
	}
	var found bool
	for _, c := range res.Combos {
		if c.Region != RegionCandidate || !c.Reliable {
			continue
		}
		if !found || c.T < res.Chosen.T || (c.T == res.Chosen.T && c.V < res.Chosen.V) {
			res.Chosen, found = c, true
		}
	}
	return res
}

// ---------------------------------------------------------------------
// §5.5 — implementation overhead
// ---------------------------------------------------------------------

// Overhead reproduces the paper's §5.5 cost accounting for adding
// Evanesco to a flash chip.
type Overhead struct {
	// FlagCellsPerWL is the spare cells consumed per wordline
	// (k cells × pages-per-WL).
	FlagCellsPerWL int
	// SpareFraction is the share of the spare area the flags take (the
	// paper: up to 1 KiB of spare per 16-KiB page).
	SpareFraction float64
	// MajorityTransistors approximates the k-bit majority circuit
	// (~200 transistors per chip).
	MajorityTransistors int
	// BridgeTransistors is one per data-out pin (8 for a ×8 chip).
	BridgeTransistors int
	// TpLockOverTprog and TbLockOverTbers are the latency ratios of §5.5
	// (paper: < 14.3 % and < 8.6 %).
	TpLockOverTprog float64
	TbLockOverTbers float64
}

// ComputeOverhead evaluates §5.5 for the TLC chip: k flag cells per pAP
// flag and the latencies of the final pLock/bLock operating points.
func ComputeOverhead() Overhead {
	const (
		spareBytes             = 1024 // spare area per 16-KiB page
		transistorsPerMajority = 200  // Gajda & Sekanina [56]
		dataOutPins            = 8
	)
	t := nand.DefaultTiming()
	pagesPerWL := vth.TLC.Bits()
	flagCells := vth.FlagCells * pagesPerWL
	spareCells := spareBytes * 8 * pagesPerWL // spare area spans the WL's pages
	return Overhead{
		FlagCellsPerWL:      flagCells,
		SpareFraction:       float64(flagCells) / float64(spareCells),
		MajorityTransistors: transistorsPerMajority,
		BridgeTransistors:   dataOutPins,
		TpLockOverTprog:     float64(t.PLock) / float64(t.Prog),
		TbLockOverTbers:     float64(t.BLock) / float64(t.Erase),
	}
}

// ---------------------------------------------------------------------
// Extension — lock durability vs. storage temperature
// ---------------------------------------------------------------------

// TempDurabilityPoint evaluates the chosen pLock/bLock operating points
// at one storage temperature.
type TempDurabilityPoint struct {
	TempC float64
	// PAPMajorityFail5y is the k-cell majority flip probability after 5
	// years at this temperature.
	PAPMajorityFail5y float64
	// SSLCenter5y is the bAP (SSL) center Vth after 5 years; the block
	// stays locked while it exceeds 3 V.
	SSLCenter5y float64
	// SSLHolds reports whether the block lock survives the 5 years.
	SSLHolds bool
}

// LockDurabilityVsTemperature extends the paper's 30°C retention analysis
// (§5.3/§5.4) across storage temperatures using Arrhenius acceleration:
// the paper qualifies the operating points at the JEDEC 30°C condition;
// this experiment shows how much thermal margin they carry.
func LockDurabilityVsTemperature(temps []float64) []TempDurabilityPoint {
	if temps == nil {
		temps = []float64{30, 40, 55, 70, 85}
	}
	fm := vth.DefaultFlagModel()
	sm := vth.DefaultSSLModel()
	const fiveYears = 5 * 365
	pl, bl := vth.PLockPoint, vth.BLockPoint
	out := make([]TempDurabilityPoint, 0, len(temps))
	for _, tc := range temps {
		center := sm.CenterAfterAtTemp(bl.V, bl.T, fiveYears, tc)
		out = append(out, TempDurabilityPoint{
			TempC:             tc,
			PAPMajorityFail5y: fm.MajorityFailureProbAtTemp(vth.FlagCells, pl.V, pl.T, fiveYears, 1000, tc),
			SSLCenter5y:       center,
			SSLHolds:          center >= sm.DisableThreshold,
		})
	}
	return out
}
