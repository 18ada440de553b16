package main

import (
	"fmt"
	"reflect"
	"sort"
)

// metricDef names a metric the benchmark prints.
type metricDef struct {
	Name, Unit string
	// Bound is the share of the first set's median by which the second set
	// of the same build may be worse before -aa fails (end-to-end only).
	Bound float64
	// Only names the one workload an end-to-end metric is defined on.
	Only string
}

// endToEndDefs are measured on every workload with no instrumentation.
// Host time and simulated time are never mixed: every time here is host
// time. BENCHMARK.json repeats these names, units and bounds.
var endToEndDefs = []metricDef{
	{Name: "wall_s", Unit: "s", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "host_ns_per_chipop", Unit: "ns", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Bound: 0.25},
}

// gateDefs are end-to-end too, but are zero or undefined on some workloads,
// which BENCHMARK.json's end_to_end list does not allow; it carries them
// under per_layer and -aa applies the bounds here.
var gateDefs = []metricDef{
	{Name: "failed_share", Unit: "ratio"},
	{Name: "fig14_err", Unit: "ratio", Only: "fig14-grid"},
	{Name: "trace_overhead_x", Unit: "x", Bound: 0.10, Only: "traced-audit"},
	{Name: "tinsec_p99_us", Unit: "us", Only: "traced-audit"},
}

// endToEndDefsOf lists the end-to-end metrics defined on w.
func endToEndDefsOf(w workloadDef) []metricDef {
	defs := append([]metricDef(nil), endToEndDefs...)
	for _, d := range gateDefs {
		if d.Only == "" || d.Only == w.Name {
			defs = append(defs, d)
		}
	}
	return defs
}

// profiledLayers get a <layer>.cpu_ms metric; a sample in any other
// package under internal/ goes to other.cpu_ms.
var profiledLayers = []string{
	"workload", "filesys", "blockio", "ftl", "sanitize", "ssd", "nand", "nand-vth",
	"ecc", "fault", "sim", "metrics", "trace", "audit", "experiment", "parallel",
}

// value is a metric's median over the passes of one workload.
type value struct {
	Unit             string
	Median, Min, Max float64
	N                int
}

func summarize(unit string, xs []float64) value {
	if len(xs) == 0 {
		return value{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return value{Unit: unit, Median: med, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func exact(unit string, x float64) value { return summarize(unit, []float64{x}) }

// pass is one repetition of a workload: the study child, the
// nil-collector twin of a Traced workload, and either a setup child
// (end-to-end passes) or a profiled child (layer passes).
type pass struct {
	Study childResult
	Twin  *childResult
	Setup *childResult
	Prof  *childResult
}

func runPass(w workloadDef, seed int64, layers, small bool) (pass, error) {
	var p pass
	var err error
	child := func(phase string, profile bool) (*childResult, error) {
		res, err := spawn(childSpec{Workload: w.Name, Phase: phase, Seed: seed, Profile: profile, Small: small})
		return &res, err
	}
	study, err := child(phaseStudy, false)
	if err != nil {
		return p, err
	}
	p.Study = *study
	if w.Traced {
		if p.Twin, err = child(phaseTwin, false); err != nil {
			return p, err
		}
	}
	if layers {
		p.Prof, err = child(phaseStudy, true)
	} else {
		p.Setup, err = child(phaseSetup, false)
	}
	return p, err
}

// over collects f over the passes.
func over(passes []pass, f func(pass) float64) []float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return xs
}

func chipOps(r childResult) (n uint64) {
	for _, c := range r.Cells {
		n += c.chipOps()
	}
	return n
}

// verdict is the outcome of the correctness checks over a set of passes.
type verdict struct {
	Attempted, Failed uint64
	Failures          []string
}

// check counts host requests attempted in the study windows and how many of
// them failed: reads that stayed uncorrectable, plus every request of a
// cell that returned an error or panicked, whose sim_digest differs from
// the first pass's (or, traced, from its nil-collector twin's), or whose
// audit ledger is not clean; a failed workload-level check (Fig. 14
// invariants, the attack matrix) fails every request of the pass.
func check(w workloadDef, passes []pass, attackOK bool) verdict {
	var v verdict
	fail := func(format string, args ...any) {
		v.Failures = append(v.Failures, w.Name+": "+fmt.Sprintf(format, args...))
	}
	first := passes[0].Study.Cells
	for i, p := range passes {
		wholePass := !attackOK || len(p.Study.Cells) != len(first)
		if w.Grid {
			for _, msg := range fig14Invariants(p.Study.Cells) {
				fail("pass %d: %s", i, msg)
				wholePass = true
			}
		}
		for j, c := range p.Study.Cells {
			requests := max(c.Report.Requests, 1)
			v.Attempted += requests
			bad := wholePass
			switch {
			case c.Err != "":
				fail("pass %d: %s: %s", i, c.Label, c.Err)
				bad = true
			case !wholePass && c.Digest != first[j].Digest:
				fail("pass %d: %s: sim_digest %s differs from pass 0's %s", i, c.Label, c.Digest, first[j].Digest)
				bad = true
			}
			if w.Traced && c.Err == "" {
				if !c.AuditClean || c.OpenCopies != 0 {
					fail("pass %d: %s: audit ledger not clean (%d open copies)", i, c.Label, c.OpenCopies)
					bad = true
				}
				if p.Twin == nil || j >= len(p.Twin.Cells) || p.Twin.Cells[j].Digest != c.Digest {
					fail("pass %d: %s: tracing perturbed the simulation (digest differs from nil-collector twin)", i, c.Label)
					bad = true
				}
			}
			if bad {
				v.Failed += requests
			} else {
				v.Failed += c.Report.ReadFailures
			}
		}
	}
	return v
}

// fig14Invariants checks, per profile, that secSSD's WAF equals the
// baseline's (locks copy nothing) and that IOPS orders
// erSSD < scrSSD < secSSD <= baseline.
func fig14Invariants(cells []cellResult) []string {
	var msgs []string
	for i := 0; i+len(fig14Policies) <= len(cells); i += len(fig14Policies) {
		by := map[string]cellResult{}
		for k, policy := range fig14Policies {
			by[policy] = cells[i+k]
		}
		base, er, scr, sec := by["baseline"].Report, by["erSSD"].Report, by["scrSSD"].Report, by["secSSD"].Report
		profile := cells[i].Label
		if sec.WAF != base.WAF {
			msgs = append(msgs, fmt.Sprintf("%s: secSSD WAF %v != baseline WAF %v", profile, sec.WAF, base.WAF))
		}
		if !(er.IOPS < scr.IOPS && scr.IOPS < sec.IOPS && sec.IOPS <= base.IOPS) {
			msgs = append(msgs, fmt.Sprintf("%s: IOPS order broken: erSSD %.0f scrSSD %.0f secSSD %.0f baseline %.0f",
				profile, er.IOPS, scr.IOPS, sec.IOPS, base.IOPS))
		}
	}
	return msgs
}

const mb = 1e6

// endToEnd computes the end-to-end metrics (endToEndDefs and gateDefs) of
// one workload from its passes.
func endToEnd(w workloadDef, passes []pass, v verdict) map[string]value {
	m := map[string]value{}
	wall := over(passes, func(p pass) float64 { return float64(p.Study.WallNs) / 1e9 })
	m["wall_s"] = summarize("s", wall)
	m["cpu_s"] = summarize("s", over(passes, func(p pass) float64 { return float64(p.Study.CPUNs) / 1e9 }))
	var setups []float64
	for _, p := range passes {
		if p.Setup != nil {
			for _, ns := range p.Setup.SetupNs {
				setups = append(setups, float64(ns)/1e9)
			}
		}
	}
	m["setup_s"] = summarize("s", setups)
	m["host_ns_per_chipop"] = summarize("ns", over(passes, func(p pass) float64 {
		return float64(p.Study.WallNs) / float64(max(chipOps(p.Study), 1))
	}))
	m["alloc_mb"] = summarize("MB", over(passes, func(p pass) float64 { return float64(p.Study.AllocBytes) / mb }))
	m["peak_rss_mb"] = summarize("MB", over(passes, func(p pass) float64 { return float64(p.Study.MaxRSSKB) * 1024 / mb }))

	m["failed_share"] = exact("ratio", float64(v.Failed)/float64(max(v.Attempted, 1)))
	m["fig14_err"] = exact("ratio", passes[0].Study.Fig14Err)
	m["trace_overhead_x"], m["tinsec_p99_us"] = value{Unit: "x"}, value{Unit: "us"}
	if w.Traced {
		twin := summarize("s", over(passes, func(p pass) float64 {
			if p.Twin == nil {
				return 0
			}
			return float64(p.Twin.WallNs) / 1e9
		}))
		if twin.Median > 0 {
			x := m["wall_s"]
			m["trace_overhead_x"] = value{Unit: "x", Median: x.Median / twin.Median, Min: x.Min / twin.Max, Max: x.Max / twin.Min, N: x.N}
		}
		m["tinsec_p99_us"] = exact("us", passes[0].Study.TInsecP99)
	}
	return m
}

// perLayer computes the per-layer metrics of one workload: host time by
// layer from the profiled passes, simulated work from the first pass's
// reports (exact counts, identical on every pass), and the probes.
func perLayer(w workloadDef, passes []pass, probes probeResult) map[string]value {
	m := map[string]value{}

	// 1. Host time, from the profiled children.
	samples := map[string]int64{}
	var periodNs int64
	var profWall []float64
	for _, p := range passes {
		if p.Prof == nil {
			continue
		}
		for k, n := range p.Prof.Samples {
			samples[k] += n
		}
		periodNs = p.Prof.PeriodNs
		profWall = append(profWall, float64(p.Prof.WallNs)/1e9)
	}
	perPassMs := func(n int64) value {
		return exact("ms", float64(n)*float64(periodNs)/1e6/float64(max(len(profWall), 1)))
	}
	other := samples[keyTotal] - samples[keyBg] - samples[keyHarness]
	for _, layer := range profiledLayers {
		m[layer+".cpu_ms"] = perPassMs(samples[layer])
		other -= samples[layer]
	}
	m["other.cpu_ms"] = perPassMs(other)
	for _, k := range []string{keyBg, keyHarness, keyMalloc, keyMemmove} {
		m[k+".cpu_ms"] = perPassMs(samples[k])
	}
	m["profile.samples"] = exact("count", float64(samples[keyTotal])/float64(max(len(profWall), 1)))
	m["profile.overhead_x"] = value{Unit: "x"}
	if wall := summarize("s", over(passes, func(p pass) float64 { return float64(p.Study.WallNs) / 1e9 })); wall.Median > 0 && len(profWall) > 0 {
		m["profile.overhead_x"] = exact("x", summarize("s", profWall).Median/wall.Median)
	}

	// 2. Simulated work, summed over the cells.
	count := func(name string, n uint64) { m[name] = exact("count", float64(n)) }
	var (
		requests, elapsedUs                                         uint64
		chipUtil, chanUtil, chipWaitUs, p50, p99                    float64
		events, dropped, windows, openCopies, retries, readFailures uint64
	)
	cells := passes[0].Study.Cells
	s := cells[0].Report.Stats
	for i, c := range cells {
		r := c.Report
		weight := float64(r.Requests)
		requests += r.Requests
		elapsedUs += uint64(r.Elapsed)
		chipUtil += weight * r.ChipUtil
		chanUtil += weight * mean(r.ChanUtilPer)
		chipWaitUs += sum(r.ChipWaitUs)
		p50 += weight * r.LatencyP50
		p99 += weight * r.LatencyP99
		retries += r.ReadRetries
		readFailures += r.ReadFailures
		events += c.TraceEvents
		dropped += c.TraceDropped
		windows += c.AuditWindows
		openCopies += uint64(c.OpenCopies)
		if i > 0 {
			addCounters(&s, &r.Stats)
		}
	}
	count("workload.requests", requests)
	count("workload.pages_written", s.HostWrittenPages)
	count("workload.pages_read", s.HostReadPages)
	count("workload.pages_trimmed", s.HostTrimmedPages)
	count("ftl.flash_programs", s.FlashPrograms)
	count("ftl.flash_reads", s.FlashReads)
	count("ftl.erases", s.Erases)
	count("ftl.plocks", s.PLocks)
	count("ftl.blocks", s.BLocks)
	count("ftl.scrubs", s.Scrubs)
	count("ftl.gc_runs", s.GCRuns)
	count("ftl.gc_copies", s.GCCopies)
	count("ftl.copybacks", s.Copybacks)
	count("ftl.sanitize_copies", s.SanitizeCopies)
	m["ftl.waf"] = exact("ratio", float64(s.FlashPrograms)/float64(max(s.HostWrittenPages, 1)))
	count("ftl.program_retries", s.ProgramRetries)
	count("ftl.lock_escalations", s.LockEscalations)
	count("ftl.retired_blocks", s.RetiredBlocks)
	count("ftl.backstop_scrubs", s.BackstopScrubs)
	count("fault.program_failures", s.ProgramFailures)
	count("fault.plock_failures", s.PLockFailures)
	count("fault.block_failures", s.BLockFailures)
	count("fault.erase_failures", s.EraseFailures)
	weight := float64(max(requests, 1))
	m["ssd.sim_elapsed_s"] = exact("s", float64(elapsedUs)/1e6)
	m["ssd.sim_iops"] = exact("1/s", float64(requests)/(float64(max(elapsedUs, 1))/1e6))
	m["ssd.chip_util"] = exact("ratio", chipUtil/weight)
	m["ssd.chan_util"] = exact("ratio", chanUtil/weight)
	m["ssd.chip_wait_s"] = exact("s", chipWaitUs/1e6)
	m["ssd.lat_p50_us"] = exact("us", p50/weight)
	m["ssd.lat_p99_us"] = exact("us", p99/weight)
	count("ssd.read_retries", retries)
	count("ssd.read_failures", readFailures)
	count("trace.events", events)
	count("trace.dropped", dropped)
	count("audit.windows", windows)
	count("audit.open_copies", openCopies)
	m["audit.tinsec_p50_us"] = exact("us", passes[0].Study.TInsecP50)

	// 3. Probes.
	for name, ns := range probes {
		m[name] = exact("ns", ns)
	}
	return m
}

func sum(xs []float64) (total float64) {
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	return sum(xs) / float64(max(len(xs), 1))
}

// addCounters adds every uint64 field of *src to *dst; both point to the
// same struct type (ftl.Stats, reached through ssd.Report).
func addCounters(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + s.Field(i).Uint())
		}
	}
}

// simDigest folds the cells' digests into one per workload.
func simDigest(r childResult) string {
	var all string
	for _, c := range r.Cells {
		all += c.Digest
	}
	return digestString(all)
}
