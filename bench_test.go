package repro

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches called out in DESIGN.md §5. Each benchmark regenerates
// its artifact end to end and reports the figure's headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness at test scale (the cmd/ tools run larger scales).

import (
	"fmt"
	"testing"

	"repro/internal/chipchar"
	"repro/internal/enc"
	"repro/internal/experiment"
	"repro/internal/ftl"
	"repro/internal/ftl/ftltest"
	"repro/internal/nand/vth"
	"repro/internal/sanitize"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/vertrace"
	"repro/internal/workload"

	"math/rand"

	"repro/internal/blockio"
	"repro/internal/nand"
)

// --- Table 1 / Figure 4: the §3 data-versioning study -------------------

func table1Config(prof workload.Profile) vertrace.StudyConfig {
	return vertrace.StudyConfig{
		Workload:      prof,
		CapacityPages: 16 * 1024, // 64 MiB at 4 KiB pages (paper: 16 GiB)
		PageBytes:     4096,
		FillFraction:  0.75,
		StudyPages:    48 * 1024, // 3 capacities of writes (paper: 4)
		Seed:          11,
	}
}

// BenchmarkTable1 regenerates the VAF / T_insecure statistics for the
// three §3 workloads.
func BenchmarkTable1(b *testing.B) {
	for _, prof := range []workload.Profile{workload.Mobile(), workload.MailServer(), workload.DBServer()} {
		b.Run(prof.Name, func(b *testing.B) {
			var row vertrace.Table1Row
			for i := 0; i < b.N; i++ {
				res, err := vertrace.RunStudy(table1Config(prof))
				if err != nil {
					b.Fatal(err)
				}
				row = res.Row
			}
			b.ReportMetric(row.UV.VAFMax, "UV-VAFmax")
			b.ReportMetric(row.MV.VAFMax, "MV-VAFmax")
			b.ReportMetric(row.MV.TInsecMax, "MV-Tinsec-max")
		})
	}
}

// BenchmarkFigure4 regenerates the N_valid/N_invalid time plots for the
// representative UV and MV files.
func BenchmarkFigure4(b *testing.B) {
	cfg := table1Config(workload.DBServer())
	first, err := vertrace.RunStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	top := vertrace.TopFiles(first.Files, true, 1)
	if len(top) == 0 {
		b.Fatal("no MV file found")
	}
	cfg.WatchIDs = []uint64{top[0].FileID}
	b.ResetTimer()
	var points int
	for i := 0; i < b.N; i++ {
		res, err := vertrace.RunStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		points = res.Watched[0].Invalid.Len()
	}
	b.ReportMetric(float64(points), "series-points")
}

// --- Figures 6, 9, 10, 11(b), 12: chip characterization -----------------

func chipCfg() chipchar.Config { return chipchar.Config{WLs: 4000, Seed: 1} }

// BenchmarkFigure6 regenerates the OSR reliability boxes.
func BenchmarkFigure6(b *testing.B) {
	var r chipchar.Fig6Result
	for i := 0; i < b.N; i++ {
		r = chipchar.Figure6(chipCfg())
	}
	b.ReportMetric(100*r.MLC[1].FracAboveLimit, "MLC-OSR-%>limit")
	b.ReportMetric(100*r.TLC[1].FracAboveLimit, "TLC-OSR-%>limit")
	b.ReportMetric(r.MLC[2].Box.Max, "MLC-ret-max")
}

// BenchmarkFigure9 regenerates the pLock design-space exploration.
func BenchmarkFigure9(b *testing.B) {
	var r chipchar.Fig9Result
	for i := 0; i < b.N; i++ {
		r = chipchar.Figure9(chipCfg())
	}
	b.ReportMetric(r.Chosen.V, "chosen-V")
	b.ReportMetric(r.Chosen.T, "chosen-tpLock-us")
}

// BenchmarkFigure10 regenerates the open-interval sweep.
func BenchmarkFigure10(b *testing.B) {
	var r chipchar.Fig10Result
	for i := 0; i < b.N; i++ {
		r = chipchar.Figure10(chipCfg())
	}
	growth := r.NoPE[len(r.NoPE)-1]/r.NoPE[0] - 1
	b.ReportMetric(100*growth, "RBER-growth-%")
}

// BenchmarkFigure11 regenerates the SSL cutoff sweep.
func BenchmarkFigure11(b *testing.B) {
	var r chipchar.Fig11Result
	for i := 0; i < b.N; i++ {
		r = chipchar.Figure11(chipCfg())
	}
	b.ReportMetric(r.Cutoff, "cutoff-V")
}

// BenchmarkFigure12 regenerates the bLock design-space exploration.
func BenchmarkFigure12(b *testing.B) {
	var r chipchar.Fig12Result
	for i := 0; i < b.N; i++ {
		r = chipchar.Figure12(chipCfg())
	}
	b.ReportMetric(r.Chosen.V, "chosen-V")
	b.ReportMetric(r.Chosen.T, "chosen-tbLock-us")
}

// --- Figure 14: the system-level evaluation ------------------------------

func benchScale() experiment.Scale {
	sc := experiment.SmallScale()
	sc.StudyPages = 4000
	return sc
}

// BenchmarkFigure14a reports normalized IOPS per configuration on the
// MailServer workload (run `reproduce -fig 14a` for all four workloads).
func BenchmarkFigure14a(b *testing.B) {
	var rows []experiment.Fig14Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Figure14Parallel(benchScale(), []workload.Profile{workload.MailServer()}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(r.IOPS["erSSD"], "erSSD")
	b.ReportMetric(r.IOPS["scrSSD"], "scrSSD")
	b.ReportMetric(r.IOPS["secSSD"], "secSSD")
}

// BenchmarkFigure14b reports normalized WAF per configuration.
func BenchmarkFigure14b(b *testing.B) {
	var rows []experiment.Fig14Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Figure14Parallel(benchScale(), []workload.Profile{workload.MailServer()}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(r.WAF["erSSD"], "erSSD")
	b.ReportMetric(r.WAF["scrSSD"], "scrSSD")
	b.ReportMetric(r.WAF["secSSD"], "secSSD")
}

// BenchmarkFigure14c reports the secured-fraction sweep endpoints.
func BenchmarkFigure14c(b *testing.B) {
	var pts []experiment.Fig14cPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiment.Figure14cParallel(benchScale(),
			[]workload.Profile{workload.MailServer()}, []float64{0.6, 1.0}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].NormIOPS, "IOPS@60%")
	b.ReportMetric(pts[1].NormIOPS, "IOPS@100%")
}

// BenchmarkHeadline reports the §1 aggregate claims.
func BenchmarkHeadline(b *testing.B) {
	var h experiment.Headline
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure14Parallel(benchScale(),
			[]workload.Profile{workload.MailServer(), workload.Mobile()}, 1)
		if err != nil {
			b.Fatal(err)
		}
		h = experiment.ComputeHeadline(rows)
	}
	b.ReportMetric(h.IOPSSpeedupAvg, "IOPS-speedup-avg")
	b.ReportMetric(100*h.EraseReductionAvg, "erase-reduction-%")
	b.ReportMetric(100*h.PLockReductionAvg, "pLock-reduction-%")
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblationFlagRedundancy sweeps the pAP flag redundancy k and
// reports the 5-year majority failure probability at the chosen pLock
// operating point. The paper picks k = 9.
func BenchmarkAblationFlagRedundancy(b *testing.B) {
	fm := vth.DefaultFlagModel()
	for _, k := range []int{5, 7, 9, 11} {
		b.Run(benchName("k", k), func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				p = fm.MajorityFailureProb(k, vth.PLockVoltages[3], 100, 5*365, 1000)
			}
			b.ReportMetric(p, "majority-fail-5y")
		})
	}
}

// BenchmarkAblationPLockOperatingPoint contrasts the chosen pLock point
// (Vp4, 100µs) with the rejected corner (Vp2, 200µs) from Fig. 9(d).
func BenchmarkAblationPLockOperatingPoint(b *testing.B) {
	fm := vth.DefaultFlagModel()
	points := []struct {
		name string
		v, t float64
	}{
		{"chosen-Vp4-100us", vth.PLockVoltages[3], 100},
		{"rejected-Vp2-200us", vth.PLockVoltages[1], 200},
	}
	for _, pt := range points {
		b.Run(pt.name, func(b *testing.B) {
			var errs float64
			for i := 0; i < b.N; i++ {
				errs = fm.ExpectedRetentionErrors(9, pt.v, pt.t, 5*365, 1000)
			}
			b.ReportMetric(errs, "errs-5y-of-9")
		})
	}
}

// BenchmarkAblationLockPolicy compares the §6 lock-manager decision rule
// against always-pLock (secSSD_nobLock) on the large-write workload where
// bLock matters most.
func BenchmarkAblationLockPolicy(b *testing.B) {
	for _, policy := range []ftl.Policy{sanitize.SecSSDNoBLock(), sanitize.SecSSD()} {
		b.Run(policy.Name(), func(b *testing.B) {
			var run experiment.Run
			for i := 0; i < b.N; i++ {
				var err error
				run, err = experiment.Execute(workload.Mobile(), policy, 1.0, benchScale())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(run.IOPS(), "IOPS")
			b.ReportMetric(float64(run.Report.Stats.PLocks), "pLocks")
			b.ReportMetric(float64(run.Report.Stats.BLocks), "bLocks")
		})
	}
}

// BenchmarkAblationGC compares greedy min-valid victim selection (the
// paper FTL's policy) against FIFO collection under secured churn: greedy
// should hold a visibly lower WAF.
func BenchmarkAblationGC(b *testing.B) {
	run := func(b *testing.B, victim ftl.VictimPolicy) {
		var waf float64
		for i := 0; i < b.N; i++ {
			s, err := ssd.New(ssd.Config{
				Channels: 2, ChipsPerChannel: 2,
				Chip: nand.Geometry{
					Blocks: 24, WLsPerBlock: 16, CellKind: vth.TLC,
					PageBytes: 4096, FlagCells: 9, EnduranceCycles: 1000,
				},
				OverProvision: 0.25, GCFreeBlocksLow: 2, QueueDepth: 16,
				Policy: sanitize.SecSSD(), Seed: 3, Victim: victim,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Prefill(0.85, true); err != nil {
				b.Fatal(err)
			}
			s.Mark()
			rng := rand.New(rand.NewSource(4))
			logical := int64(s.LogicalPages())
			for j := 0; j < 4000; j++ {
				s.MustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical), Pages: 1})
			}
			waf = s.Report().WAF
		}
		b.ReportMetric(waf, "WAF")
	}
	b.Run("greedy", func(b *testing.B) { run(b, ftl.VictimGreedy) })
	b.Run("fifo", func(b *testing.B) { run(b, ftl.VictimFIFO) })
}

// BenchmarkAblationLazyErase contrasts lazy block erase (required on
// real 3D NAND for open-interval reliability, §5.4) with eager erase.
func BenchmarkAblationLazyErase(b *testing.B) {
	run := func(b *testing.B, eager bool) {
		var r ssd.Report
		for i := 0; i < b.N; i++ {
			s, err := ssd.New(ssd.Config{
				Channels: 2, ChipsPerChannel: 2,
				Chip: nand.Geometry{
					Blocks: 24, WLsPerBlock: 16, CellKind: vth.TLC,
					PageBytes: 4096, FlagCells: 9, EnduranceCycles: 1000,
				},
				OverProvision: 0.25, GCFreeBlocksLow: 2, QueueDepth: 16,
				Policy: sanitize.SecSSD(), Seed: 3, EagerErase: eager,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Prefill(0.8, true); err != nil {
				b.Fatal(err)
			}
			s.Mark()
			rng := rand.New(rand.NewSource(4))
			logical := int64(s.LogicalPages())
			for j := 0; j < 4000; j++ {
				s.MustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical), Pages: 1})
			}
			r = s.Report()
		}
		b.ReportMetric(r.IOPS, "IOPS")
		b.ReportMetric(float64(r.Stats.Erases), "erases")
	}
	b.Run("lazy", func(b *testing.B) { run(b, false) })
	b.Run("eager", func(b *testing.B) { run(b, true) })
}

// BenchmarkTraceOverhead measures the tracing subsystem's cost on the hot
// simulation path: "disabled" runs with no collector (the production
// default — each instrumentation site pays one predictable branch),
// "recorder" attaches a full trace.Recorder. The disabled case is the
// <5%-regression acceptance bar for the telemetry layer.
func BenchmarkTraceOverhead(b *testing.B) {
	// newCollector is called once per simulated device: a Recorder shared
	// across iterations would hit its event cap and fold several devices'
	// physical pages into one audit ledger.
	run := func(b *testing.B, newCollector func() trace.Collector) {
		for i := 0; i < b.N; i++ {
			s, err := ssd.New(ssd.Config{
				Channels: 2, ChipsPerChannel: 2,
				Chip: nand.Geometry{
					Blocks: 24, WLsPerBlock: 16, CellKind: vth.TLC,
					PageBytes: 4096, FlagCells: 9, EnduranceCycles: 1000,
				},
				OverProvision: 0.25, GCFreeBlocksLow: 2, QueueDepth: 16,
				Policy: sanitize.SecSSD(), Seed: 3, Trace: newCollector(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Prefill(0.85, true); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			logical := int64(s.LogicalPages())
			for j := 0; j < 4000; j++ {
				s.MustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical), Pages: 1})
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, func() trace.Collector { return nil }) })
	b.Run("recorder", func(b *testing.B) {
		run(b, func() trace.Collector {
			return trace.NewRecorder(trace.RecorderConfig{Chips: 4, Channels: 2})
		})
	})
}

// BenchmarkFlashOps measures the raw command path of the emulated chip.
func BenchmarkFlashOps(b *testing.B) {
	geo := ftltest.SmallGeometry()
	b.Run("program+pLock+erase", func(b *testing.B) {
		chips := ftltest.BuildChips(b, geo)
		chip := chips[0]
		ppb := geo.PagesPerBlock
		for i := 0; i < b.N; i++ {
			blockIdx := 0
			page := i % ppb
			if page == 0 && i > 0 {
				if _, err := chip.Erase(blockIdx, 0); err != nil {
					b.Fatal(err)
				}
			}
			a := nand.PageAddr{Block: blockIdx, Page: page}
			if _, err := chip.Program(a, nil, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := chip.PLock(a, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One secured single-page overwrite through the whole device: scrSSD
	// moves the wordline's two siblings and scrubs, erSSD evacuates and
	// erases the block. Neither the page copies nor the request-level
	// hand-off to the policy allocate once the sanitize queue's free
	// lists are warm (ssd.TestSanitizeCopiesDoNotAllocate pins 0).
	overwrite := func(b *testing.B, policy ftl.Policy) {
		s, err := ssd.New(ssd.Config{
			Channels: 2, ChipsPerChannel: 2,
			Chip: nand.Geometry{
				Blocks: 24, WLsPerBlock: 16, CellKind: vth.TLC,
				PageBytes: 4096, FlagCells: 9, EnduranceCycles: 1000,
			},
			OverProvision: 0.25, GCFreeBlocksLow: 2, QueueDepth: 16,
			Policy: policy, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Prefill(0.85, true); err != nil {
			b.Fatal(err)
		}
		logical := int64(s.LogicalPages())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.MustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: int64(i) * 7 % logical, Pages: 1})
		}
		b.ReportMetric(float64(s.FTL().Stats().SanitizeCopies)/float64(b.N), "copies/op")
	}
	b.Run("scrSSD-overwrite", func(b *testing.B) { overwrite(b, sanitize.ScrSSD()) })
	b.Run("erSSD-evacuation", func(b *testing.B) { overwrite(b, sanitize.ErSSD()) })
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%02d", prefix, v)
}

// BenchmarkAblationWearLeveling contrasts LIFO free-block reuse with
// wear-aware (least-erased-first) allocation under a skewed workload and
// reports the erase-count spread — the lifetime lever the paper's §7
// erase-reduction numbers feed into.
func BenchmarkAblationWearLeveling(b *testing.B) {
	run := func(b *testing.B, wearAware bool) {
		var wear ftl.WearStats
		for i := 0; i < b.N; i++ {
			s, err := ssd.New(ssd.Config{
				Channels: 2, ChipsPerChannel: 2,
				Chip: nand.Geometry{
					Blocks: 24, WLsPerBlock: 16, CellKind: vth.TLC,
					PageBytes: 4096, FlagCells: 9, EnduranceCycles: 1000,
				},
				OverProvision: 0.25, GCFreeBlocksLow: 2, QueueDepth: 16,
				Policy: sanitize.SecSSD(), Seed: 3, WearAware: wearAware,
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			logical := int64(s.LogicalPages())
			hot := logical / 16
			for j := 0; j < 40000; j++ {
				lpa := rng.Int63n(hot)
				if rng.Intn(10) == 0 {
					lpa = hot + rng.Int63n(logical-hot)
				}
				s.MustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: lpa, Pages: 1})
			}
			wear = s.FTL().Wear()
		}
		b.ReportMetric(float64(wear.Spread), "erase-spread")
		b.ReportMetric(float64(wear.Max), "erase-max")
	}
	b.Run("lifo", func(b *testing.B) { run(b, false) })
	b.Run("wear-aware", func(b *testing.B) { run(b, true) })
}

// BenchmarkRelatedWorkEncryption measures the per-page AES-CTR cost of
// the §8 encryption-based alternative: every host read and write pays
// this on the datapath, whereas Evanesco's pLock costs 100µs of chip
// time only when secured data is invalidated.
func BenchmarkRelatedWorkEncryption(b *testing.B) {
	ks := enc.NewKeyStore(1)
	key, _ := ks.CreateKey(1)
	c, err := enc.NewCipher(key)
	if err != nil {
		b.Fatal(err)
	}
	page := make([]byte, 16*1024)
	rand.New(rand.NewSource(1)).Read(page)
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page = c.EncryptPage(int64(i), page)
	}
}

// BenchmarkExtensionLockDurabilityVsTemp evaluates the chosen pLock/bLock
// operating points across storage temperatures (Arrhenius-accelerated
// retention) — an extension beyond the paper's 30°C qualification.
func BenchmarkExtensionLockDurabilityVsTemp(b *testing.B) {
	var pts []chipchar.TempDurabilityPoint
	for i := 0; i < b.N; i++ {
		pts = chipchar.LockDurabilityVsTemperature(nil)
	}
	for _, p := range pts {
		if p.TempC == 55 {
			b.ReportMetric(p.PAPMajorityFail5y, "pAP-fail-5y@55C")
			b.ReportMetric(p.SSLCenter5y, "SSL-V@55C")
		}
	}
}

// BenchmarkAblationCopyback contrasts on-chip copyback GC against
// bus-transfer GC (read out + program back) under churn.
func BenchmarkAblationCopyback(b *testing.B) {
	run := func(b *testing.B, noCopyback bool) {
		var r ssd.Report
		for i := 0; i < b.N; i++ {
			s, err := ssd.New(ssd.Config{
				Channels: 2, ChipsPerChannel: 2,
				Chip: nand.Geometry{
					Blocks: 24, WLsPerBlock: 16, CellKind: vth.TLC,
					PageBytes: 4096, FlagCells: 9, EnduranceCycles: 1000,
				},
				OverProvision: 0.20, GCFreeBlocksLow: 2, QueueDepth: 16,
				Policy: sanitize.SecSSD(), Seed: 3, NoCopyback: noCopyback,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Prefill(0.85, true); err != nil {
				b.Fatal(err)
			}
			s.Mark()
			rng := rand.New(rand.NewSource(4))
			logical := int64(s.LogicalPages())
			for j := 0; j < 6000; j++ {
				s.MustSubmit(blockio.Request{Op: blockio.OpWrite, LPA: rng.Int63n(logical), Pages: 1})
			}
			r = s.Report()
		}
		b.ReportMetric(r.IOPS, "IOPS")
		b.ReportMetric(float64(r.Stats.Copybacks), "copybacks")
	}
	b.Run("copyback", func(b *testing.B) { run(b, false) })
	b.Run("bus-transfer", func(b *testing.B) { run(b, true) })
}
