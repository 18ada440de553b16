// Securedelete: the §5.1 threat-model demonstration. The attacker
// de-solders the chips and issues pin-level 00h/30h read cycles through
// the raw flash command interface (nand.RawPort) — bypassing the file
// system, the FTL, and the driver entirely. The same attack is replayed
// against a conventional SSD and an Evanesco SecureSSD, before deletion,
// after deletion, and after five years of retention (flag cells must
// hold their charge; the §5.3/§5.4 operating points guarantee it).
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/nand"
)

const secretMarker = "TOP-SECRET-DOSSIER"

func main() {
	fmt.Println("=== Threat model: attacker dumps raw flash chips ===")
	fmt.Println()
	attack(core.PolicyBaseline, "conventional SSD (no sanitization)")
	fmt.Println()
	attack(core.PolicyEvanesco, "Evanesco SecureSSD")
}

func attack(policy core.PolicyName, label string) {
	cfg, err := core.Compact(policy, 2)
	if err != nil {
		log.Fatal(err)
	}
	dev, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- %s ---\n", label)

	secret := bytes.Repeat([]byte(secretMarker+" "), 300)
	if err := dev.WriteFile("dossier.pdf", secret, core.Secure); err != nil {
		log.Fatal(err)
	}
	// Update the file once, so an old version exists too (condition C2).
	if err := dev.WriteFile("dossier.pdf", append([]byte("v2 "), secret...), core.Secure); err != nil {
		log.Fatal(err)
	}
	// The attacker's tool: pin-level 00h/30h read cycles on every chip —
	// no FTL, no driver, just the flash bus.
	pinLevelScan := func() int {
		hits := 0
		needle := []byte(secretMarker)
		for _, chip := range dev.SSD().Chips() {
			port := nand.NewRawPort(chip)
			geo := chip.Geometry()
			for b := 0; b < geo.Blocks; b++ {
				for pg := 0; pg < geo.PagesPerBlock(); pg++ {
					data, _ := port.ReadPage(nand.PageAddr{Block: b, Page: pg}, geo.PageBytes)
					if bytes.Contains(data, needle) {
						hits++
					}
				}
			}
		}
		return hits
	}
	report := func(stage string, liveExpected bool) {
		hits := pinLevelScan()
		verdict := "RECOVERED — sanitization failed"
		switch {
		case hits == 0:
			verdict = "nothing recovered"
		case liveExpected:
			verdict = "readable (file is live — expected)"
		}
		fmt.Printf("  %-28s %3d page(s) with content: %s\n", stage, hits, verdict)
	}
	report("while file is live:", true)

	if err := dev.DeleteFile("dossier.pdf"); err != nil {
		log.Fatal(err)
	}
	report("after secure delete:", false)

	// A patient attacker waits five years hoping the lock cells decay.
	dev.AdvanceRetention(5 * 365)
	report("after 5 years of retention:", false)

	st := dev.SSD().FTL().Stats()
	fmt.Printf("  device cost: %d pLocks, %d bLocks, %d erases, %d copy-writes\n",
		st.PLocks, st.BLocks, st.Erases, st.GCCopies+st.SanitizeCopies)
}
