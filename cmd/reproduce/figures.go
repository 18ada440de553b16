package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/attack"
	"repro/internal/chipchar"
	"repro/internal/experiment"
	"repro/internal/nand/vth"
	"repro/internal/parallel"
	"repro/internal/sanitize"
	"repro/internal/vertrace"
	"repro/internal/workload"
)

// A figure is one artifact: its -fig id and its one builder.
type figure struct {
	id    string
	build func(*env) (Table, error)
}

// registry is every artifact this repository regenerates, in report
// order. -fig all is a loop over it.
var registry = []figure{
	{"table1", table1},
	{"4", figure4},
	{"6", figure6},
	{"9", figure9},
	{"10", figure10},
	{"11", figure11},
	{"12", figure12},
	{"overhead", overhead},
	{"temp", tempExtension},
	{"14a", figure14Norm("Figure 14(a) — IOPS normalized to the no-sanitization SSD",
		"paper: erSSD <= %.2f, scrSSD ~%.2f avg, secSSD ~%.3f avg", experiment.PaperIOPS,
		func(r experiment.Fig14Row) map[string]float64 { return r.IOPS })},
	{"14b", figure14Norm("Figure 14(b) — WAF normalized to the no-sanitization SSD",
		"paper: erSSD up to %.0fx, scrSSD up to %.2fx, secSSD ~%.1fx", experiment.PaperWAF,
		func(r experiment.Fig14Row) map[string]float64 { return r.WAF })},
	{"14c", figure14c},
	{"headline", headline},
	{"ablation", ablation},
	{"tinsec", tinsec},
	{"attack", attackMatrix},
}

// figureIDs lists the registry's ids for usage errors.
func figureIDs() string {
	ids := make([]string, len(registry))
	for i, f := range registry {
		ids[i] = f.id
	}
	return strings.Join(ids, ", ")
}

// env is what a builder may depend on: the scale, the worker count, the
// -workloads selection, and the results more than one figure reads.
type env struct {
	sc       experiment.Scale
	workers  int
	profiles []workload.Profile // nil: each figure's own default set
	powerCut uint64             // -power-cut: attack matrix of power-cut cells only

	// What -scale selects beyond experiment.Scale: the wordlines sampled
	// per chip-characterization scenario (paper: 3.69 M) and the §3 study's
	// device and write volume in 4-KiB pages (paper: 16 GiB / 64 GiB).
	chip          chipchar.Config
	capacityPages int64
	studyPages    uint64

	cells   experiment.Memo                           // 14a, 14b, headline, 14c, -check
	ladder  func() ([]experiment.BatchingCell, error) // ablation, tinsec
	studies func() ([]*vertrace.StudyResult, error)   // table1, 4
	attack  func() ([]attack.Score, error)            // attack, the -attack-* gate
}

func newEnv(scale string, sc experiment.Scale, workers int, profiles []workload.Profile, powerCut uint64) *env {
	e := &env{sc: sc, workers: workers, profiles: profiles, powerCut: powerCut,
		chip: chipchar.Config{WLs: 20_000, Seed: 1, Workers: workers}, capacityPages: 64 << 10, studyPages: 256 << 10}
	if scale == "small" {
		e.chip.WLs, e.capacityPages, e.studyPages = 10_000, 32<<10, 96<<10
	}
	e.ladder = sync.OnceValues(func() ([]experiment.BatchingCell, error) {
		return experiment.BatchingAblation(e.sc, e.workers)
	})
	e.studies = sync.OnceValues(func() ([]*vertrace.StudyResult, error) { return e.runStudies(nil) })
	e.attack = sync.OnceValues(func() ([]attack.Score, error) {
		cells := attack.DefaultCells(e.sc.Seed)
		if e.powerCut > 0 {
			cells = nil
			for _, p := range sanitize.Policies() {
				cells = append(cells, attack.Config{Policy: p.Name(), Scenario: attack.ScenarioPowerCut, CutAfterOps: e.powerCut, Seed: e.sc.Seed})
			}
		}
		return attack.Matrix(cells, e.workers)
	})
	return e
}

func fix(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
func pct(v float64, prec int) string { return fix(100*v, prec) + "%" }

func pick(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

// runStudies runs the §3 study per workload (the paper's three unless
// -workloads chose), optionally watching files for their time plots,
// fanned over the workers in input order.
func (e *env) runStudies(watch [][]uint64) ([]*vertrace.StudyResult, error) {
	profiles := e.profiles
	if profiles == nil {
		profiles = []workload.Profile{workload.Mobile(), workload.MailServer(), workload.DBServer()}
	}
	cfgs := make([]vertrace.StudyConfig, len(profiles))
	for i, p := range profiles {
		cfgs[i] = vertrace.StudyConfig{Workload: p, CapacityPages: e.capacityPages, PageBytes: 4096,
			FillFraction: 0.75, StudyPages: e.studyPages, Seed: 11}
		if watch != nil {
			cfgs[i].WatchIDs = watch[i]
		}
	}
	return parallel.Map(e.workers, len(cfgs), func(i int) (*vertrace.StudyResult, error) { return vertrace.RunStudy(cfgs[i]) })
}

func table1(e *env) (Table, error) {
	results, err := e.studies()
	if err != nil {
		return Table{}, err
	}
	t := newTable(fmt.Sprintf("Table 1 — data versioning (%d MiB device, 4-KiB pages, 75%% prefill, %d MiB written)",
		e.capacityPages>>8, e.studyPages>>8),
		"paper (16 GiB / 64 GiB), same columns: Mobile 0.24/1.5, 0.02/0.43, 1.0/2.0, 0.41/2.3; "+
			"MailServer 0.22/1.0, 0.021/1.7, 0.93/2.4, 0.50/2.5; DBServer 0.005/0.24, 0.52/2.6, 3.2/7.8, 3.5/3.5",
		"workload", "UV VAF avg/max", "UV T_insec avg/max", "MV VAF avg/max", "MV T_insec avg/max")
	pair := func(avg, max float64) string { return fix(avg, 2) + " / " + fix(max, 2) }
	for _, res := range results {
		r := res.Row
		t.add(r.Workload, pair(r.UV.VAFAvg, r.UV.VAFMax), pair(r.UV.TInsecAvg, r.UV.TInsecMax),
			pair(r.MV.VAFAvg, r.MV.VAFMax), pair(r.MV.TInsecAvg, r.MV.TInsecMax))
	}
	return t, nil
}

// figure4 reruns each study (same seed, identical history) with its top
// uni-version and multi-version file watched.
func figure4(e *env) (Table, error) {
	first, err := e.studies()
	if err != nil {
		return Table{}, err
	}
	watch := make([][]uint64, len(first))
	labels := make([][]string, len(first))
	for i, res := range first {
		for _, kind := range []string{"UV", "MV"} {
			for _, f := range vertrace.TopFiles(res.Files, kind == "MV", 1) {
				watch[i] = append(watch[i], f.FileID)
				labels[i] = append(labels[i], fmt.Sprintf("%s %s file %d", res.Row.Workload, kind, f.FileID))
			}
		}
	}
	watched, err := e.runStudies(watch)
	if err != nil {
		return Table{}, err
	}
	t := newTable("Figure 4 — N_valid / N_invalid of each workload's top UV and MV file over logical time (4-KiB writes)",
		"paper: a never-updated file gathers invalid versions from GC copies alone (a); "+
			"an updated file's invalid count races ahead of its valid count between GC passes (b)",
		"sample", "N_valid", "N_invalid")
	for i, res := range watched {
		for k, ws := range res.Watched {
			valid, invalid := ws.Valid.Downsample(24), ws.Invalid.Downsample(24)
			for j := 0; j < min(len(valid), len(invalid)); j++ {
				t.add(fmt.Sprintf("%s @%d", labels[i][k], valid[j].T), fix(valid[j].V, 0), fix(invalid[j].V, 0))
			}
		}
	}
	return t, nil
}

func figure6(e *env) (Table, error) {
	r := chipchar.Figure6(e.chip)
	t := newTable(fmt.Sprintf("Figure 6 — MSB RBER under one-shot reprogramming (%d WLs per box, 1.0 = ECC limit)", e.chip.WLs),
		"paper: MLC after-OSR 7.4% beyond limit; TLC all unreadable; after 1 y retention most MLC pages fail, worst > 1.5x",
		"box", "median", "q1", "q3", "max", "beyond limit")
	for i, boxes := range [][]chipchar.Fig6Box{r.MLC, r.TLC} {
		for _, b := range boxes {
			t.add([]string{"MLC ", "TLC "}[i]+b.Label, fix(b.Box.Median, 3), fix(b.Box.Q1, 3), fix(b.Box.Q3, 3),
				fix(b.Box.Max, 3), pct(b.FracAboveLimit, 1))
		}
	}
	return t, nil
}

func figure9(e *env) (Table, error) {
	r := chipchar.Figure9(e.chip)
	t := newTable("Figure 9 — pLock design space: data-cell disturb (b), flag-program success (c), "+
		fmt.Sprintf("expected failed cells of k=%d over retention days (d)", vth.FlagCells),
		fmt.Sprintf("chosen operating point: (%.1f V, %.0f µs) (paper: (Vp4, 100 µs))", r.Chosen.V, r.Chosen.T),
		"combination", "disturb ratio", "flag success", "region")
	for _, d := range r.RetentionDays {
		t.Cols = append(t.Cols, fmt.Sprintf("errs@%gd", d))
	}
	for _, c := range r.Combos {
		key := fmt.Sprintf("%.1fV/%.0fµs", c.V, c.T)
		row := []string{key, fix(c.DisturbRatio, 3), pct(c.FlagSuccess, 2), c.Region.String()}
		curve, ok := r.RetentionErrs[key]
		if !ok && c.Region == chipchar.RegionCandidate {
			return Table{}, fmt.Errorf("candidate %s has no retention curve", key)
		}
		for i := range r.RetentionDays {
			row = append(row, "—")
			if ok {
				row[len(row)-1] = fix(curve[i], 2)
			}
		}
		t.add(row...)
	}
	return t, nil
}

func figure10(e *env) (Table, error) {
	r := chipchar.Figure10(e.chip)
	t := newTable("Figure 10 — normalized RBER vs. open-interval length",
		fmt.Sprintf("zero→very-long RBER growth: %.0f%% (paper ≈ 30%%)", 100*(r.NoPE[len(r.NoPE)-1]/r.NoPE[0]-1)),
		"open interval", "no P/E cycling", "after P/E cycling", "after P/E + retention")
	for i, b := range r.Buckets {
		t.add(b.Label, fix(r.NoPE[i], 3), fix(r.PE[i], 3), fix(r.PERet[i], 3))
	}
	return t, nil
}

func figure11(e *env) (Table, error) {
	r := chipchar.Figure11(e.chip)
	t := newTable("Figure 11(b) — normalized block-read RBER vs. SSL center Vth",
		fmt.Sprintf("read-failure cutoff: %.2f V (paper: 3 V)", r.Cutoff), "SSL center", "fresh", "1K P/E")
	for i, c := range r.Centers {
		t.add(fix(c, 2)+" V", fix(r.Fresh[i], 3), fix(r.Cycled[i], 3))
	}
	return t, nil
}

func figure12(e *env) (Table, error) {
	r := chipchar.Figure12(e.chip)
	t := newTable("Figure 12 — bLock design space: SSL center Vth after programming and retention",
		fmt.Sprintf("chosen operating point: (%.0f V, %.0f µs) (paper: (Vb6, 300 µs))", r.Chosen.V, r.Chosen.T),
		"combination", "programmed", "after 1 y", "after 5 y", "status")
	for _, c := range r.Combos {
		status := c.Region.String()
		if c.Region == chipchar.RegionCandidate {
			status = pick(c.Reliable, "candidate (reliable 5 y)", "candidate (fails retention)")
		}
		t.add(fmt.Sprintf("%.0fV/%.0fµs", c.V, c.T), fix(c.ProgrammedCenter, 2)+" V", fix(c.Center1y, 2)+" V",
			fix(c.Center5y, 2)+" V", status)
	}
	return t, nil
}

func overhead(*env) (Table, error) {
	o := chipchar.ComputeOverhead()
	t := newTable("§5.5 — implementation overhead", "", "quantity", "ours", "paper")
	t.add("pAP flag cells per wordline", strconv.Itoa(o.FlagCellsPerWL), "k = 9 per page")
	t.add("share of the spare area", pct(o.SpareFraction, 2), "negligible")
	t.add("majority-circuit transistors", strconv.Itoa(o.MajorityTransistors), "~200")
	t.add("bridge transistors", strconv.Itoa(o.BridgeTransistors), "one per data-out pin")
	t.add("tpLock/tPROG", pct(o.TpLockOverTprog, 1), "< 14.3%")
	t.add("tbLock/tBERS", pct(o.TbLockOverTbers, 1), "< 8.6%")
	return t, nil
}

func tempExtension(*env) (Table, error) {
	t := newTable("Extension — lock durability vs. storage temperature (Arrhenius-accelerated retention)",
		"the paper qualifies the lock operating points at 30°C only",
		"temperature", "pAP majority flip (5 y)", "SSL center (5 y)", "bLock")
	for _, p := range chipchar.LockDurabilityVsTemperature(nil) {
		t.add(fix(p.TempC, 0)+"°C", strconv.FormatFloat(p.PAPMajorityFail5y, 'e', 2, 64),
			fix(p.SSLCenter5y, 2)+" V", pick(p.SSLHolds, "holds", "FAILS"))
	}
	return t, nil
}

// figure14Norm builds 14(a) or 14(b): one column per sanitizing policy
// (after the baseline, the normalization target), ref filled from paper.
func figure14Norm(title, ref string, paper map[string]float64,
	get func(experiment.Fig14Row) map[string]float64) func(*env) (Table, error) {
	return func(e *env) (Table, error) {
		rows, err := e.cells.Figure14(e.sc, e.profiles, e.workers)
		if err != nil {
			return Table{}, err
		}
		t := newTable(title, fmt.Sprintf(ref, paper["erSSD"], paper["scrSSD"], paper["secSSD"]), "workload")
		for _, p := range sanitize.Policies()[1:] {
			t.Cols = append(t.Cols, p.Name())
		}
		for _, r := range rows {
			row := []string{r.Workload}
			for _, p := range t.Cols[1:] {
				row = append(row, fix(get(r)[p], 4))
			}
			t.add(row...)
		}
		return t, nil
	}
}

func figure14c(e *env) (Table, error) {
	pts, err := e.cells.Figure14c(e.sc, e.profiles, nil, e.workers)
	if err != nil {
		return Table{}, err
	}
	t := newTable("Figure 14(c) — secSSD IOPS vs. fraction of securely-managed data",
		"paper: at 60% secured data, secSSD within 6.2% of baseline (2.8% avg)", "workload")
	// Points arrive grouped by workload, fractions ascending.
	for _, p := range pts {
		if n := len(t.Rows); n == 0 || t.Rows[n-1][0] != p.Workload {
			t.add(p.Workload)
		}
		if len(t.Rows) == 1 {
			t.Cols = append(t.Cols, pct(p.Fraction, 0))
		}
		last := &t.Rows[len(t.Rows)-1]
		*last = append(*last, fix(p.NormIOPS, 3))
	}
	return t, nil
}

func headline(e *env) (Table, error) {
	rows, err := e.cells.Figure14(e.sc, e.profiles, e.workers)
	if err != nil {
		return Table{}, err
	}
	return headlineTable(experiment.ComputeHeadline(rows), experiment.PaperHeadline), nil
}

// headlineTable prints our headline h beside the paper's p.
func headlineTable(h, p experiment.Headline) Table {
	t := newTable("Headline (§1) — secSSD vs. reprogram-based sanitization", "", "claim", "max", "avg", "paper max / avg")
	claim := func(name string, f func(float64, int) string, prec int, oursMax, oursAvg, paperMax, paperAvg float64) {
		t.add(name, f(oursMax, prec), f(oursAvg, prec), f(paperMax, prec)+" / "+f(paperAvg, prec))
	}
	times := func(v float64, prec int) string { return fix(v, prec) + "×" }
	claim("secSSD IOPS over scrSSD", times, 1, h.IOPSSpeedupMax, h.IOPSSpeedupAvg, p.IOPSSpeedupMax, p.IOPSSpeedupAvg)
	claim("block-erase reduction vs. scrSSD", pct, 0, h.EraseReductionMax, h.EraseReductionAvg, p.EraseReductionMax, p.EraseReductionAvg)
	claim("pLock reduction from bLock", pct, 0, h.PLockReductionMax, h.PLockReductionAvg, p.PLockReductionMax, p.PLockReductionAvg)
	claim("IOPS gain from bLock", pct, 1, h.BLockIOPSGainMax, h.BLockIOPSGainAvg, p.BLockIOPSGainMax, p.BLockIOPSGainAvg)
	return t
}

// ablation runs the amortization ladder (single-plane, no pipelining →
// two-plane pipelined → + wordline pLock batching) on Mobile × secSSD.
func ablation(e *env) (Table, error) {
	cells, err := e.ladder()
	if err != nil {
		return Table{}, err
	}
	t := newTable("Amortization ablation — Mobile × secSSD", "", "cell", "planes", "cache pipeline", "batching",
		"IOPS", "×disabled", "WAF", "pLocks", "batched pulses (pages)", "bLocks")
	base := cells[0].Run.IOPS()
	for _, c := range cells {
		s := c.Run.Report.Stats
		norm := 0.0
		if base > 0 {
			norm = c.Run.IOPS() / base
		}
		batching := pick(c.LockBatch.Enabled, fmt.Sprintf("on (%v/%d)", c.LockBatch.Deadline, c.LockBatch.Threshold), "off")
		t.add(c.Label, strconv.Itoa(max(c.Planes, 1)), pick(c.NoCachePipeline, "off", "on"), batching,
			fix(c.Run.IOPS(), 0), fix(norm, 2)+"×", fix(c.Run.WAF(), 2), fmt.Sprint(s.PLocks),
			fmt.Sprintf("%d (%d)", s.PLockBatches, s.PLockBatchedPages), fmt.Sprint(s.BLocks))
	}
	return t, nil
}

// tinsec reports where T_insecure time goes: the audit ledger's closed
// per-secret windows across the ablation ladder, by phase, with each
// cell's copy provenance and end-of-run verifier result.
func tinsec(e *env) (Table, error) {
	cells, err := e.ladder()
	if err != nil {
		return Table{}, err
	}
	t := newTable("T_insecure phase breakdown — Mobile × secSSD",
		"each closed per-secret window (first exposure of any copy to destruction of the last) "+
			"is attributed to phases that sum exactly to the window",
		"cell", "windows", "reopened", "ladder windows", "mean window", "queue wait", "batch wait",
		"reopen", "pulse", "ladder", "copies host + GC + evacuated + quarantined", "verifier")
	for _, c := range cells {
		st := c.Audit
		mean := 0.0
		if st.Windows > 0 {
			mean = float64(st.WindowSumUs) / float64(st.Windows)
		}
		share := func(v int64) string {
			if st.WindowSumUs == 0 {
				return "—"
			}
			return pct(float64(v)/float64(st.WindowSumUs), 1)
		}
		verdict := "clean"
		if !c.Verify.Clean() {
			verdict = c.Verify.Err().Error()
		}
		t.add(c.Label, fmt.Sprint(st.Windows), fmt.Sprint(st.ReopenedWindows), fmt.Sprint(st.LadderWindows),
			fix(mean, 0)+" µs", share(st.Phases.QueueWait), share(st.Phases.BatchWait), share(st.Phases.Reopen),
			share(st.Phases.Pulse), share(st.Phases.Ladder),
			fmt.Sprintf("%d + %d + %d + %d", st.Copies.Host, st.Copies.GC, st.Copies.Evacuate, st.Copies.Quarantine), verdict)
	}
	return t, nil
}

// attackMatrix plays the §5.1 attacker against every policy: each cell
// plants marker-filled secrets, churns so GC scatters copies, deletes
// them, then dumps the raw chips — optionally after a retention bake or
// a power cut followed by remount and journal replay.
func attackMatrix(e *env) (Table, error) {
	scores, err := e.attack()
	if err != nil {
		return Table{}, err
	}
	v := attack.Verify(scores)
	ref := fmt.Sprintf("Verdict: **FAIL** — %d cells: %s", v.Cells, strings.Join(v.Failures, "; "))
	if v.Pass {
		ref = fmt.Sprintf("Verdict: **PASS** — %d cells, %d baseline control leaks (the attack has teeth), "+
			"zero recoverable secured bytes under every sanitizing policy.", v.Cells, v.ControlLeaks)
	}
	t := newTable("Attack matrix — §5.1 adversary vs. every policy", ref,
		"cell", "recovered", "pages", "cut fired", "remounted", "live intact", "audit open", "audit clean")
	for _, s := range scores {
		cut, remounted := "—", "—"
		if s.Scenario == string(attack.ScenarioPowerCut) {
			cut, remounted = pick(s.CutFired, "yes ("+s.CutOp+")", "no"), pick(s.Remounted, "yes", "no")
		}
		t.add(s.Label, fmt.Sprintf("%d / %d B", s.RecoverableBytes, s.SecretBytes), strconv.Itoa(s.HitPages), cut, remounted,
			pick(s.LiveIntact, "yes", "no"), strconv.Itoa(s.OpenAuditCopies), pick(s.AuditClean, "yes", "no"))
	}
	return t, nil
}
