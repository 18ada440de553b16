// Package attack is the adversarial forensics harness: it plays the
// paper's §5.1 attacker against every sanitization policy and scores
// what the attacker actually recovers. Each run plants marker-filled
// secret files on a compact device, drives churn so GC scatters copies,
// deletes the secrets, and then attacks the raw chips through
// nand.ForensicDump — optionally after years of retention bake (hoping
// the lock cells decay) or after a deterministic power cut followed by a
// remount (hoping the crash orphaned an unsanitized copy).
//
// The score is cross-checked against the audit ledger: a policy that
// claims zero recoverable bytes must also show zero open T_insecure
// windows, and vice versa. Verify encodes the CI gate: every sanitizing
// policy must leak nothing in every scenario, while the baseline control
// must leak — proving the attack, and therefore the gate, has teeth.
package attack

import (
	"bytes"
	"fmt"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Scenario names an attack mode.
type Scenario string

const (
	// ScenarioDump de-solders the chips right after the delete and reads
	// every page through the raw port.
	ScenarioDump Scenario = "dump"
	// ScenarioRetention bakes the chips for Config.BakeDays before the
	// dump: the attacker waits for pAP/bAP charge loss to unlock pages.
	ScenarioRetention Scenario = "retention"
	// ScenarioPowerCut yanks power mid-delete (Config.CutAfterOps), lets
	// the device remount and replay the deletion journal, then dumps.
	ScenarioPowerCut Scenario = "power-cut"
)

// Config is one attack cell.
type Config struct {
	Policy   core.PolicyName `json:"policy"`
	Scenario Scenario        `json:"scenario"`
	// BakeDays ages the chips before the dump (retention-aided attack).
	BakeDays float64 `json:"bake_days,omitempty"`
	// FaultRate enables program/erase/lock fault injection during the
	// workload (the recovery ladder must not reopen the attack surface).
	FaultRate float64 `json:"fault_rate,omitempty"`
	// CutAfterOps arms the power cut: the CutOp-matching chip operation
	// number CutAfterOps after the delete begins is interrupted.
	// Only meaningful for ScenarioPowerCut.
	CutAfterOps uint64      `json:"cut_after_ops,omitempty"`
	CutOp       fault.CutOp `json:"-"`
	Seed        int64       `json:"seed,omitempty"`
}

// Label names the cell in tables and JSON artifacts.
func (c Config) Label() string {
	switch c.Scenario {
	case ScenarioRetention:
		return fmt.Sprintf("%s/%s@%gd", c.Policy, c.Scenario, c.BakeDays)
	case ScenarioPowerCut:
		return fmt.Sprintf("%s/%s@%dops", c.Policy, c.Scenario, c.CutAfterOps)
	default:
		if c.FaultRate > 0 {
			return fmt.Sprintf("%s/%s+faults", c.Policy, c.Scenario)
		}
		return fmt.Sprintf("%s/%s", c.Policy, c.Scenario)
	}
}

// Score is what the attacker got out of one cell.
type Score struct {
	Label     string  `json:"label"`
	Policy    string  `json:"policy"`
	Scenario  string  `json:"scenario"`
	BakeDays  float64 `json:"bake_days"`
	FaultRate float64 `json:"fault_rate"`

	// SecretBytes is the denominator: bytes of secured data written and
	// then deleted.
	SecretBytes int `json:"secret_bytes"`
	// RecoverableBytes counts raw-dump bytes on pages where a deleted
	// secret's marker is still readable — the attacker's haul.
	RecoverableBytes int `json:"recoverable_secured_bytes"`
	// HitPages is the number of physical pages leaking a secret.
	HitPages int `json:"hit_pages"`

	// CutFired reports whether the armed power cut actually struck
	// (baseline issues no chip ops on delete, so its cut never fires).
	CutFired bool `json:"cut_fired,omitempty"`
	// CutOp is the interrupted operation when the cut fired.
	CutOp string `json:"cut_op,omitempty"`
	// Remounted reports the device went through the crash-recovery path.
	Remounted bool `json:"remounted,omitempty"`

	// LiveIntact: every page of the surviving secure file reads back
	// through the mapping as written — an attack harness that
	// "sanitizes" by destroying live data scores nothing.
	LiveIntact bool `json:"live_intact"`

	// OpenAuditCopies is the ledger's count of secured copies with open
	// T_insecure windows at the end of the cell; AuditClean is the full
	// ledger verification (zero exposed copies, phase sums balanced).
	OpenAuditCopies int  `json:"open_audit_copies"`
	AuditClean      bool `json:"audit_clean"`
}

// Leaked reports whether the attacker recovered any secured bytes.
func (s Score) Leaked() bool { return s.RecoverableBytes > 0 }

// The planted fleet: a few multi-page secrets, one live secure file that
// must survive, one insecure decoy that may legitimately remain.
const (
	numSecrets      = 4
	secretPages     = 6
	keepMarker      = "EVANESCO-KEEP-7f3a"
	decoyMarker     = "EVANESCO-DECOY-90c1"
	secretMarkerFmt = "EVANESCO-SECRET-%02d-b55e"
	churnRequests   = 220
)

func secretNeedle(i int) []byte { return []byte(fmt.Sprintf(secretMarkerFmt, i)) }

// fill builds a payload of n pages, each page packed with repetitions of
// the needle (so a single surviving page still matches).
func fill(needle []byte, pages, pageBytes int) []byte {
	out := make([]byte, pages*pageBytes)
	for i := 0; i+len(needle) <= len(out); i += len(needle) {
		copy(out[i:], needle)
	}
	return out
}

// Run executes one attack cell and scores it.
func Run(cfg Config) (Score, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	devCfg, err := core.Compact(cfg.Policy, seed)
	if err != nil {
		return Score{}, err
	}
	rec := trace.NewRecorder(trace.RecorderConfig{
		Chips:    devCfg.Channels * devCfg.ChipsPerChannel,
		Channels: devCfg.Channels,
	})
	devCfg.Fault = fault.Uniform(cfg.FaultRate, 0)
	devCfg.Trace = rec
	dev, err := core.New(devCfg)
	if err != nil {
		return Score{}, err
	}
	pageBytes := dev.PageBytes()

	// Plant the fleet.
	keepData := fill([]byte(keepMarker), 4, pageBytes)
	if err := dev.WriteFile("keep.dat", keepData, core.Secure); err != nil {
		return Score{}, err
	}
	if err := dev.WriteFile("decoy.dat", fill([]byte(decoyMarker), 4, pageBytes), core.Insecure); err != nil {
		return Score{}, err
	}
	for i := 0; i < numSecrets; i++ {
		name := fmt.Sprintf("secret-%d.db", i)
		if err := dev.WriteFile(name, fill(secretNeedle(i), secretPages, pageBytes), core.Secure); err != nil {
			return Score{}, err
		}
	}
	// Churn scatters GC copies of the secrets across the media: every
	// relocated generation must be sanitized too.
	if err := dev.Churn(churnRequests, seed+17); err != nil {
		return Score{}, err
	}
	dev.Sync()

	sc := Score{
		Label:       cfg.Label(),
		Policy:      string(cfg.Policy),
		Scenario:    string(cfg.Scenario),
		BakeDays:    cfg.BakeDays,
		FaultRate:   cfg.FaultRate,
		SecretBytes: numSecrets * secretPages * pageBytes,
	}

	// The deletion journal: each secret's extents, captured before the
	// delete so a crash-interrupted delete can be replayed after remount
	// (trims leave no media record — this models FS journal recovery).
	// keep.dat's extents are captured alike: a remount starts an empty
	// file system, and the file is read back through the mapping.
	keep, ok := dev.FS().Lookup("keep.dat")
	if !ok {
		return Score{}, fmt.Errorf("attack: keep.dat vanished before delete")
	}
	kept := keep.Extents()
	journal := make([][]int64, numSecrets)
	for i := range journal {
		f, ok := dev.FS().Lookup(fmt.Sprintf("secret-%d.db", i))
		if !ok {
			return Score{}, fmt.Errorf("attack: secret-%d.db vanished before delete", i)
		}
		journal[i] = f.Extents()
	}

	deleteAll := func() error {
		for i := 0; i < numSecrets; i++ {
			if err := dev.DeleteFile(fmt.Sprintf("secret-%d.db", i)); err != nil {
				return err
			}
		}
		dev.Sync()
		return nil
	}

	switch cfg.Scenario {
	case ScenarioPowerCut:
		if err := dev.ArmPowerCut(fault.CutSpec{AfterOps: cfg.CutAfterOps, Op: cfg.CutOp}); err != nil {
			return Score{}, err
		}
		loss, err := dev.RunUntilPowerLoss(deleteAll)
		if err != nil {
			return Score{}, err
		}
		if loss != nil {
			sc.CutFired = true
			sc.CutOp = loss.Op.String()
		}
		if err := dev.Remount(); err != nil {
			return Score{}, err
		}
		sc.Remounted = true
		// Journal replay: re-assert every delete's trims, then drain the
		// sanitize work they trigger. Completed trims replay as no-ops.
		for _, extents := range journal {
			for _, r := range runsOf(extents) {
				if _, err := dev.SSD().Submit(blockio.Request{
					Op: blockio.OpTrim, LPA: r.start, Pages: r.n,
				}); err != nil {
					return Score{}, fmt.Errorf("attack: trim replay: %w", err)
				}
			}
		}
		dev.Sync()
	default:
		if err := deleteAll(); err != nil {
			return Score{}, err
		}
	}

	if cfg.BakeDays > 0 {
		dev.AdvanceRetention(cfg.BakeDays)
	}

	// The dump. Pages are counted once even when they leak several
	// secrets.
	hit := map[core.Finding]bool{}
	for i := 0; i < numSecrets; i++ {
		for _, f := range dev.ForensicScan(secretNeedle(i)) {
			hit[f] = true
		}
	}
	sc.HitPages = len(hit)
	sc.RecoverableBytes = sc.HitPages * pageBytes

	ledger := rec.AuditLedger()
	sc.OpenAuditCopies = ledger.OpenCopies()
	sc.AuditClean = ledger.Verify(rec.Horizon()).Clean()
	// The readback issues chip reads, so it comes after the ledger has
	// been read.
	sc.LiveIntact = len(kept)*pageBytes == len(keepData)
	for i := 0; sc.LiveIntact && i < len(kept); i++ {
		page, err := dev.SSD().ReadLogical(kept[i])
		sc.LiveIntact = err == nil && bytes.Equal(page, keepData[i*pageBytes:(i+1)*pageBytes])
	}
	return sc, nil
}

type extentRun struct {
	start int64
	n     int32
}

// runsOf coalesces a page list into contiguous extents, like the block
// layer merging bios.
func runsOf(pages []int64) []extentRun {
	var out []extentRun
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 {
			j++
		}
		out = append(out, extentRun{start: pages[i], n: int32(j - i)})
		i = j
	}
	return out
}
