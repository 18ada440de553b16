package main

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/nand"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Probes time one layer's public functions in isolation, as a block of
// many calls between two clock reads, never per call.

// probeResult maps probe metric name to host nanoseconds per unit.
type probeResult map[string]float64

// runProbes measures the host side (generator + filesys against a null
// device), the device side (ftl + ssd + nand replaying that stream) and the
// bare chip commands. small cuts the volumes for tests.
func runProbes(seed int64, small bool) (probeResult, error) {
	out := probeResult{}
	sc, pages, rounds := experiment.DefaultScale(), uint64(300_000), 8
	if small {
		sc, pages, rounds = experiment.SmallScale(), 3_000, 1
	}

	policy, err := experiment.PolicyByName("secSSD")
	if err != nil {
		return nil, err
	}
	cfg := ssd.DefaultConfig(policy)
	cfg.Chip.Blocks, cfg.Chip.WLsPerBlock, cfg.Chip.PageBytes = sc.BlocksPerChip, sc.WLsPerBlock, sc.PageBytes
	// The FTL reserves four blocks per chip outright, which the paper's 7 %
	// cannot cover at this block count (experiment.buildDevice does the same).
	cfg.OverProvision = 4/float64(sc.BlocksPerChip) + 0.02
	cfg.Seed = seed
	dev, err := ssd.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("probe device: %w", err)
	}
	defer dev.Close()
	mail, err := workload.ByName("MailServer")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	stream, err := workload.Record(mail, int64(dev.LogicalPages()), sc.PageBytes, pages, 1.0, seed)
	if err != nil {
		return nil, fmt.Errorf("probe record: %w", err)
	}
	out["probe.hostside_ns_per_page"] = float64(time.Since(start).Nanoseconds()) / float64(pages)
	start = time.Now()
	n, err := dev.Replay(stream)
	if err != nil {
		return nil, fmt.Errorf("probe replay: %w", err)
	}
	out["probe.devside_ns_per_req"] = float64(time.Since(start).Nanoseconds()) / float64(n)

	if err := probeChip(out, cfg.Chip, seed, rounds); err != nil {
		return nil, fmt.Errorf("probe chip: %w", err)
	}
	return out, nil
}

// probeChip drives one chip through rounds of: program the lower half of
// the blocks, read them back, copyback each page into the upper half,
// pLock the lower half, scrub one page per wordline of the upper half,
// then bLock and erase every block. At default scale a round is 13 824
// page commands of each kind (8 rounds: 110 592) and 4 608 scrubs; the
// block commands are topped up on the emptied chip to 50 extra
// bLock/erase cycles per round (19 584 each).
func probeChip(out probeResult, geo nand.Geometry, seed int64, rounds int) error {
	chip, err := nand.New(geo, nand.WithSeed(seed))
	if err != nil {
		return err
	}
	half, pages := geo.Blocks/2, geo.PagesPerBlock()
	var ns, calls [7]int64
	const (
		program = iota
		read
		copyback
		plock
		scrub
		block
		erase
	)
	// A step runs fn for every (block, page) of blocks [lo, hi), pages
	// stride apart, and charges the whole loop to command k.
	type step struct {
		k, lo, hi, stride int
		fn                func(a nand.PageAddr) error
	}
	run := func(s step) error {
		start := time.Now()
		for b := s.lo; b < s.hi; b++ {
			for p := 0; p < pages; p += s.stride {
				if err := s.fn(nand.PageAddr{Block: b, Page: p}); err != nil {
					return err
				}
				calls[s.k]++
			}
		}
		ns[s.k] += time.Since(start).Nanoseconds()
		return nil
	}
	round := []step{
		{program, 0, half, 1, func(a nand.PageAddr) error { _, err := chip.Program(a, nil, 0); return err }},
		{read, 0, half, 1, func(a nand.PageAddr) error { _, err := chip.Read(a, 0); return err }},
		{copyback, 0, half, 1, func(a nand.PageAddr) error {
			_, err := chip.Copyback(a, nand.PageAddr{Block: a.Block + half, Page: a.Page}, 0)
			return err
		}},
		{plock, 0, half, 1, func(a nand.PageAddr) error { _, err := chip.PLock(a, 0); return err }},
		{scrub, half, 2 * half, geo.PagesPerWL(), func(a nand.PageAddr) error { _, err := chip.Scrub(a, 0); return err }},
	}
	blockCycle := []step{
		{block, 0, 2 * half, pages, func(a nand.PageAddr) error { _, err := chip.BLock(a.Block, 0); return err }},
		{erase, 0, 2 * half, pages, func(a nand.PageAddr) error { _, err := chip.Erase(a.Block, 0); return err }},
	}
	steps := round
	for cycle := 0; cycle <= 50; cycle++ {
		steps = append(steps, blockCycle...)
	}
	for r := 0; r < rounds; r++ {
		for _, s := range steps {
			if err := run(s); err != nil {
				return err
			}
		}
	}
	for k, name := range []string{"program", "read", "copyback", "plock", "scrub", "block", "erase"} {
		out["probe.nand_"+name+"_ns"] = float64(ns[k]) / float64(calls[k])
	}
	return nil
}
