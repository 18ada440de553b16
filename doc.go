// Package repro is a from-scratch Go reproduction of "Evanesco:
// Architectural Support for Efficient Data Sanitization in Modern
// Flash-Based Storage Systems" (Kim, Park, Cho, Kim, Orosa, Mutlu, Kim —
// ASPLOS 2020).
//
// The repository implements the paper's full system stack as a library:
//
//   - internal/nand/vth — the calibrated threshold-voltage cell model of
//     a 48-layer 3D TLC (and MLC) NAND chip, with the pAP flag-cell and
//     SSL (bAP) physics behind the pLock/bLock commands;
//   - internal/nand — the emulated flash chip with the extended command
//     set (read/program/erase/pLock/bLock/scrub), SBPI flag programming,
//     the k-cell majority circuit, and the on-chip access control of §5;
//   - internal/ftl, internal/sanitize — the Evanesco-aware FTL of §6
//     (extended page status table, lock manager) and the five evaluated
//     sanitization configurations;
//   - internal/ssd — the SecureSSD device model (channels × chips,
//     per-chip and per-bus timelines, closed-loop IOPS measurement);
//   - internal/filesys, internal/workload — the host stack: an
//     ext4-like file layer with the O_INSEC interface and the four
//     Table 2 workload generators;
//   - internal/vertrace, internal/chipchar, internal/experiment — the
//     §3 data-versioning study, the chip characterization campaign
//     (Figs. 6, 9, 10, 11b, 12), and the Fig. 14 system evaluation;
//   - internal/core — the public facade assembling everything.
//
// cmd/reproduce regenerates every table and figure of the paper's
// evaluation, one registry entry per artifact, as a markdown or CSV
// table; bench/ measures the simulator itself end to end. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for paper-vs-measured
// results.
package repro
