// Quickstart: build an Evanesco SecureSSD, store a secure file, delete
// it, and show that even a raw-chip forensic dump cannot recover it —
// without a single block erase.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
)

func main() {
	// A compact Evanesco-enabled SecureSSD (2 channels × 2 TLC chips).
	cfg, err := core.Compact(core.PolicyEvanesco, 1)
	if err != nil {
		log.Fatal(err)
	}
	dev, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	secret := bytes.Repeat([]byte("patient-record-0042 "), 400)
	if err := dev.WriteFile("medical.db", secret, core.Secure); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote medical.db (secure mode, the device default)")

	// The file reads back normally through the FTL.
	data, err := dev.ReadFile("medical.db")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back %d bytes, content intact: %v\n",
		len(data), bytes.Contains(data, []byte("patient-record-0042")))

	// An attacker with chip-level access can see live data...
	hits := dev.ForensicScan([]byte("patient-record-0042"))
	fmt.Printf("forensic scan before delete: %d page(s) leak the content\n", len(hits))

	// ...until the file is deleted: trim -> pLock/bLock, no erase needed.
	if err := dev.DeleteFile("medical.db"); err != nil {
		log.Fatal(err)
	}
	st := dev.SSD().FTL().Stats()
	fmt.Printf("deleted: %d pLock(s), %d bLock(s), %d erase(s)\n",
		st.PLocks, st.BLocks, st.Erases)

	hits = dev.ForensicScan([]byte("patient-record-0042"))
	fmt.Printf("forensic scan after delete: %d page(s) leak the content\n", len(hits))

	// The device-wide C1/C2 sanitization checker agrees.
	if err := dev.VerifySanitization(); err != nil {
		log.Fatal("sanitization violated: ", err)
	}
	fmt.Println("sanitization verified: no stale secured data is recoverable")
}
