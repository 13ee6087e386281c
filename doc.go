// Package slacksim is a Go reproduction of "Exploiting Simulation Slack to
// Improve Parallel Simulation Speed" (Chen, Annavaram, Dubois — ICPP 2009):
// a parallel CMP-on-CMP microarchitecture simulator in which each target
// core runs in its own host thread and the synchronisation between threads
// is relaxed by a configurable simulation slack.
//
// The library lives under internal/:
//
//	internal/core         the slack engine (schemes, manager, drivers)
//	internal/cpu          the out-of-order target core model
//	internal/cache        L1/MESI-directory/NUCA-L2 hierarchy
//	internal/interconnect crossbar and occupancy contention models
//	internal/isa,asm      the SSA target ISA and its assembler
//	internal/loader,mem   program loading and shared functional memory
//	internal/sysemu       the emulated OS and Pthread-style workload API
//	internal/workloads    the seven parallel benchmarks
//	internal/harness      the paper's evaluation sweeps
//	internal/trace        per-goroutine trace rings, Chrome + ASCII export
//	internal/metrics      atomic metrics registry (near-zero when disabled)
//
// Executables: cmd/slacksim (single runs; -trace/-metrics/-timeline attach
// the observability subsystem, see docs/observability.md), cmd/slackbench
// (the paper's tables and figures, plus -breakdown for the per-scheme
// sync-overhead split), cmd/ssasm (assembler tool). Runnable walkthroughs
// live in examples/. The repository's benchmark — speed, CPU cost and
// accuracy against the serial engine, with spreads — is the separate
// module in bench/; run it with
//
//	bash bench/run.sh -seed 101
package slacksim
