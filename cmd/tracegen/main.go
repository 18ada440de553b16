// Command tracegen records a Table 2 workload as a replayable block-I/O
// trace file (the binary format of internal/blockio), and can summarize
// or replay existing traces against any of the five device
// configurations. A replay runs on reproduce's default-scale §7 device
// (experiment.DefaultScale: 2×4 chips of 48 blocks × 192 TLC wordlines,
// seed 7) with the trace's page size.
//
// Usage:
//
//	tracegen -workload MailServer -pages 100000 -out mail.trace
//	tracegen -summarize mail.trace
//	tracegen -replay mail.trace -policy secSSD
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/blockio"
	"repro/internal/experiment"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func main() {
	wl := flag.String("workload", "MailServer", "Table 2 workload to record")
	pages := flag.Uint64("pages", 100_000, "host pages to write while recording")
	capacity := flag.Int64("capacity-pages", 64*1024, "virtual device capacity in pages")
	pageBytes := flag.Int("page-bytes", 16*1024, "logical page size")
	secure := flag.Float64("secure", 1.0, "secured-data fraction")
	seed := flag.Int64("seed", 7, "generator seed")
	out := flag.String("out", "", "trace file to write")
	summarize := flag.String("summarize", "", "trace file to summarize")
	replay := flag.String("replay", "", "trace file to replay")
	policy := flag.String("policy", "secSSD", "device configuration for -replay")
	flag.Parse()

	switch {
	case *summarize != "":
		doSummarize(*summarize)
	case *replay != "":
		doReplay(*replay, *policy)
	case *out != "":
		doRecord(*wl, *capacity, *pageBytes, *pages, *secure, *seed, *out)
	default:
		fmt.Fprintln(os.Stderr, "tracegen: one of -out, -summarize, -replay is required")
		os.Exit(2)
	}
}

func doRecord(wl string, capacity int64, pageBytes int, pages uint64, secure float64, seed int64, out string) {
	prof, err := workload.ByName(wl)
	check(err)
	trace, err := workload.Record(prof, capacity, pageBytes, pages, secure, seed)
	check(err)
	f, err := os.Create(out)
	check(err)
	defer f.Close()
	n, err := trace.WriteTo(f)
	check(err)
	s := trace.Summarize()
	fmt.Printf("recorded %s: %d requests (%d reads, %d writes, %d trims), %d bytes\n",
		out, len(trace.Requests), s.Reads, s.Writes, s.Trims, n)
}

func doSummarize(path string) {
	trace := load(path)
	s := trace.Summarize()
	fmt.Printf("trace %q: page size %d bytes\n", trace.Name, trace.PageBytes)
	fmt.Printf("  requests: %d reads, %d writes (%d insecure), %d trims\n",
		s.Reads, s.Writes, s.InsecureWrites, s.Trims)
	fmt.Printf("  pages:    %d read, %d written, %d trimmed\n",
		s.ReadPages, s.WrittenPages, s.TrimmedPages)
	fmt.Printf("  r:w ratio %.3f, write sizes %d..%d pages\n",
		s.ReadWriteRatio(), s.MinWrite, s.MaxWrite)
}

func doReplay(path, policyName string) {
	trace := load(path)
	policy, err := experiment.PolicyByName(policyName)
	check(err)
	sc := experiment.DefaultScale()
	sc.PageBytes = trace.PageBytes
	dev, err := ssd.New(sc.Device(policy, nil))
	check(err)
	n, err := dev.Replay(trace)
	check(err)
	r := dev.Report()
	fmt.Printf("replayed %d/%d requests on %s\n", n, len(trace.Requests), policyName)
	fmt.Printf("  IOPS %.0f, WAF %.3f, latency p50/p99 %.0f/%.0f µs\n",
		r.IOPS, r.WAF, r.LatencyP50, r.LatencyP99)
	fmt.Printf("  flash ops: %d programs, %d erases, %d pLocks, %d bLocks, %d scrubs\n",
		r.Stats.FlashPrograms, r.Stats.Erases, r.Stats.PLocks, r.Stats.BLocks, r.Stats.Scrubs)
}

func load(path string) *blockio.Trace {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	trace, err := blockio.ReadTrace(f)
	check(err)
	return trace
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
