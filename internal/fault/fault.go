// Package fault is the deterministic fault-injection layer of the
// SecureSSD simulator. It decides, per chip operation, whether the
// operation fails — one-shot pLock programming is unreliable on real 3D
// NAND (§5.3), program/erase operations wear out, and reads accumulate
// raw bit errors — so the recovery machinery in internal/ftl and
// internal/ssd can be exercised under the conditions the paper's chip
// characterization (§5) says matter.
//
// Determinism contract: every decision is drawn from a private
// splitmix64 counter stream seeded from Config.Seed and the injector's
// stream index (one injector per chip). Chip operations are serialized
// per chip by the device model, so the i-th draw of a run is always made
// by the same operation: identical seed + identical workload ⇒ an
// identical fault schedule, bit for bit. The injector keeps no wall
// clock, no global RNG, and no map state. A fault kind's wear-scaled
// probability is evaluated once per P/E count, into a table later
// decisions at that count load: the same float expression, so the table
// moves no decision and no stream position.
package fault

import (
	"math"

	"repro/internal/nand/vth"
)

// Config sets the per-operation failure probabilities and the read
// bit-error model. The zero value disables injection entirely.
type Config struct {
	// ProgramFail, EraseFail, PLockFail, BLockFail are the base
	// per-operation failure probabilities (before wear scaling).
	ProgramFail float64
	EraseFail   float64
	PLockFail   float64
	BLockFail   float64
	// ReadBER is the injected raw bit-error rate on reads. Drawn error
	// counts are judged against the ECC limit (vth.ECCLimitRBER): up to
	// it they are repaired, beyond it the read is uncorrectable.
	ReadBER float64
	// WearWeight and WearExponent shape the per-block wear curve: every
	// probability above is multiplied by
	//
	//	1 + WearWeight * (peCycles/endurance)^WearExponent
	//
	// so failures concentrate on worn blocks. WearWeight 0 keeps the
	// curve flat; WearExponent defaults to 2 when unset.
	WearWeight   float64
	WearExponent float64
	// Seed drives the fault schedule. Injectors for different chips mix
	// their stream index into it, so one seed covers the whole device.
	Seed int64
}

// Enabled reports whether any injection is configured.
func (c Config) Enabled() bool {
	return c.ProgramFail > 0 || c.EraseFail > 0 || c.PLockFail > 0 ||
		c.BLockFail > 0 || c.ReadBER > 0
}

// Uniform returns the one-knob configuration behind the -fault-rate CLI
// flag: every lock/program/erase operation fails with probability rate,
// reads run at a raw BER of rate × the ECC limit, and wear triples the
// failure rates by end of life.
func Uniform(rate float64, seed int64) Config {
	if rate <= 0 {
		return Config{Seed: seed}
	}
	return Config{
		ProgramFail:  rate,
		EraseFail:    rate,
		PLockFail:    rate,
		BLockFail:    rate,
		ReadBER:      rate * vth.ECCLimitRBER,
		WearWeight:   3,
		WearExponent: 2,
		Seed:         seed,
	}
}

// Counts aggregates what the injector actually did, for the fault-
// campaign artifact and the golden determinism tests.
type Counts struct {
	ProgramFails      uint64 `json:"program_fails"`
	EraseFails        uint64 `json:"erase_fails"`
	PLockFails        uint64 `json:"plock_fails"`
	BLockFails        uint64 `json:"block_fails"`
	ReadErrorPages    uint64 `json:"read_error_pages"`
	ReadBitErrors     uint64 `json:"read_bit_errors"`
	ReadUncorrectable uint64 `json:"read_uncorrectable"`
}

// Add accumulates another injector's counts (per-device aggregation).
func (c *Counts) Add(o Counts) {
	c.ProgramFails += o.ProgramFails
	c.EraseFails += o.EraseFails
	c.PLockFails += o.PLockFails
	c.BLockFails += o.BLockFails
	c.ReadErrorPages += o.ReadErrorPages
	c.ReadBitErrors += o.ReadBitErrors
	c.ReadUncorrectable += o.ReadUncorrectable
}

// maxFailProb caps the wear-scaled probabilities so recovery retry loops
// always terminate with probability 1 at a useful rate.
const maxFailProb = 0.95

// Injector makes the per-operation fault decisions for one chip. It is
// not safe for concurrent use — exactly like the chip it is attached to,
// which the device model drives from one goroutine at a time.
type Injector struct {
	cfg    Config
	state  uint64
	counts Counts
	// prob[k][pe] is kind k's failure probability at pe P/E cycles on a
	// chip of probEndurance cycles, filled up to the largest count seen.
	prob          [kinds][]float64
	probEndurance int
}

// The failure kinds, each with a probability table.
const (
	kindProgram = iota
	kindErase
	kindPLock
	kindBLock
	kinds
)

// New builds an injector for one stream (the chip index). Different
// streams over the same Config draw well-separated schedules.
func New(cfg Config, stream uint64) *Injector {
	return &Injector{
		cfg: cfg,
		// Two finalizer passes separate seed and stream contributions so
		// adjacent seeds or streams do not produce correlated schedules.
		state: mix64(uint64(cfg.Seed)) ^ mix64(stream+0x9E3779B97F4A7C15),
	}
}

// Counts returns what has been injected so far.
func (in *Injector) Counts() Counts { return in.counts }

// splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// next advances the counter stream (splitmix64).
func (in *Injector) next() uint64 {
	in.state += 0x9E3779B97F4A7C15
	return mix64(in.state)
}

// uniform returns the next draw in [0, 1).
func (in *Injector) uniform() float64 {
	return float64(in.next()>>11) / (1 << 53)
}

// wearMultiplier scales a base probability by the block's wear.
func (in *Injector) wearMultiplier(peCycles, endurance int) float64 {
	if in.cfg.WearWeight <= 0 || endurance <= 0 || peCycles <= 0 {
		return 1
	}
	exp := in.cfg.WearExponent
	if exp <= 0 {
		exp = 2
	}
	return 1 + in.cfg.WearWeight*math.Pow(float64(peCycles)/float64(endurance), exp)
}

// fail draws one failure decision of a kind with base probability base.
// A zero base probability consumes no stream state, so disabled fault
// kinds never perturb the schedule of enabled ones.
func (in *Injector) fail(kind int, base float64, peCycles, endurance int) bool {
	if base <= 0 {
		return false
	}
	peCycles = max(peCycles, 0) // the wear multiplier is 1 at or below 0
	if peCycles >= len(in.prob[kind]) || endurance != in.probEndurance {
		in.fillProb(kind, base, peCycles, endurance)
	}
	return in.uniform() < in.prob[kind][peCycles]
}

// fillProb extends kind's table through peCycles, every table starting
// over when the endurance differs from theirs. A block's P/E count moves
// only at its erase, so the wear curve is evaluated once per count.
func (in *Injector) fillProb(kind int, base float64, peCycles, endurance int) {
	if endurance != in.probEndurance {
		for k := range in.prob {
			in.prob[k] = in.prob[k][:0]
		}
		in.probEndurance = endurance
	}
	for pe := len(in.prob[kind]); pe <= peCycles; pe++ {
		p := base * in.wearMultiplier(pe, endurance)
		if p > maxFailProb {
			p = maxFailProb
		}
		in.prob[kind] = append(in.prob[kind], p)
	}
}

// FailProgram decides whether a page program fails.
func (in *Injector) FailProgram(peCycles, endurance int) bool {
	if in.fail(kindProgram, in.cfg.ProgramFail, peCycles, endurance) {
		in.counts.ProgramFails++
		return true
	}
	return false
}

// FailErase decides whether a block erase fails.
func (in *Injector) FailErase(peCycles, endurance int) bool {
	if in.fail(kindErase, in.cfg.EraseFail, peCycles, endurance) {
		in.counts.EraseFails++
		return true
	}
	return false
}

// FailPLock decides whether a one-shot pLock flag program fails.
func (in *Injector) FailPLock(peCycles, endurance int) bool {
	if in.fail(kindPLock, in.cfg.PLockFail, peCycles, endurance) {
		in.counts.PLockFails++
		return true
	}
	return false
}

// FailBLock decides whether an SSL bLock program fails.
func (in *Injector) FailBLock(peCycles, endurance int) bool {
	if in.fail(kindBLock, in.cfg.BLockFail, peCycles, endurance) {
		in.counts.BLockFails++
		return true
	}
	return false
}

// ReadErrors draws the injected raw bit-error count for a read of bits
// data bits and judges it against the ECC limit: (n, false) means n
// errors were corrected in flight, (n, true) means the read is
// uncorrectable and the caller should corrupt the transferred data.
func (in *Injector) ReadErrors(bits, peCycles, endurance int) (nerr int, uncorrectable bool) {
	if in.cfg.ReadBER <= 0 || bits <= 0 {
		return 0, false
	}
	lambda := in.cfg.ReadBER * in.wearMultiplier(peCycles, endurance) * float64(bits)
	nerr = in.poisson(lambda)
	if nerr == 0 {
		return 0, false
	}
	in.counts.ReadErrorPages++
	in.counts.ReadBitErrors += uint64(nerr)
	limit := int(vth.ECCLimitRBER * float64(bits))
	if nerr > limit {
		in.counts.ReadUncorrectable++
		return nerr, true
	}
	return nerr, false
}

// FlipBits flips n stream-chosen bit positions in data (with
// replacement), modeling an uncorrectable transfer.
func (in *Injector) FlipBits(data []byte, n int) {
	bits := len(data) * 8
	if bits == 0 {
		return
	}
	if n > bits {
		n = bits
	}
	for i := 0; i < n; i++ {
		p := int(in.next() % uint64(bits))
		data[p/8] ^= 1 << uint(p%8)
	}
}

// CorruptTail mangles the suffix of a partially-programmed page: the
// one-shot program charged the leading cells before failing, so a prefix
// of the payload may remain intact and readable — which is exactly why
// the FTL must treat a failed secured program as leaked data and route
// the page through sanitization.
func (in *Injector) CorruptTail(data []byte) {
	if len(data) == 0 {
		return
	}
	half := len(data) / 2
	start := half + int(in.next()%uint64(half+1))
	var v uint64
	for i := start; i < len(data); i++ {
		if (i-start)%8 == 0 {
			v = in.next()
		}
		data[i] ^= byte(v)
		v >>= 8
	}
}

// poisson samples Poisson(lambda) from the injector's stream: Knuth's
// multiplication method for small lambda, a Box-Muller normal
// approximation above it (error counts only; the tail shape is
// irrelevant once far beyond the ECC limit).
func (in *Injector) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		u1, u2 := in.uniform(), in.uniform()
		if u1 < 1e-300 {
			u1 = 1e-300
		}
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		n := int(lambda + math.Sqrt(lambda)*z + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	limit := math.Exp(-lambda)
	l := 1.0
	for k := 0; ; k++ {
		l *= in.uniform()
		if l < limit {
			return k
		}
	}
}
