package main

import (
	"math"
	"sort"

	"slacksim/internal/stats"
)

// metricDef names one metric. Bound is the share of the baseline's median
// by which an end-to-end metric may get worse before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees, per workload. All
// are host measurements except sim_accuracy_ppm, which compares simulated
// times. BENCHMARK.json repeats this table; the smoke test keeps them equal.
var endToEnd = []metricDef{
	// ROI-committed target instructions ÷ 1e3 ÷ wall seconds inside Run*.
	{"sim_kips", "kinstr/s", "higher", 0.25},
	// Process user+sys CPU inside Run* ÷ committed instructions: shows the
	// spin and park waste of the two-thread drivers that wall time hides.
	{"host_cpu_ns_per_instr", "ns/instr", "lower", 0.25},
	// 1e6 − sim_err_ppm, where sim_err_ppm = |ROI cycles − oracle| ÷ oracle
	// × 1e6. Exactly 1e6 on the conservative workloads; the error itself is
	// the per-layer metric sim.err_ppm.
	{"sim_accuracy_ppm", "ppm", "higher", 0.02},
	// Maxrss of the child process that ran the rep.
	{"peak_rss_mb", "MB", "lower", 0.10},
	// Assemble + NewMachine + Init, paid by every rep.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, from the traced run, the
// probes and the oracle. Unit costs (ns per operation) and *_s times are
// host time; ratios and counts per instruction describe the simulated run.
var perLayer = []metricDef{
	{"asm.assemble_s", "s", "lower", 0},
	{"loader.machine_s", "s", "lower", 0},
	{"workloads.init_s", "s", "lower", 0},
	{"workloads.verify_s", "s", "lower", 0},
	{"cpu.ns_per_cycle", "ns", "lower", 0},
	{"cpu.ipc", "instr/cycle", "higher", 0},
	{"cpu.l1d_miss_per_kinstr", "1/kinstr", "lower", 0},
	{"cpu.skipped_cycle_share", "share", "higher", 0},
	{"cache.ns_per_l2_access", "ns", "lower", 0},
	{"cache.l2_access_per_kinstr", "1/kinstr", "lower", 0},
	{"cache.l2_miss_ratio", "share", "lower", 0},
	{"cache.inv_per_l2_access", "ratio", "lower", 0},
	{"interconnect.ns_per_traverse", "ns", "lower", 0},
	{"event.ns_per_heap_op", "ns", "lower", 0},
	{"event.ns_per_ring_op", "ns", "lower", 0},
	{"event.events_per_kinstr", "1/kinstr", "lower", 0},
	{"core.manager_busy_share", "share", "lower", 0},
	{"core.core_wait_share", "share", "lower", 0},
	{"core.parks_per_kcycle", "1/kcycle", "lower", 0},
	{"core.straggler_top_share", "share", "lower", 0},
	{"sysemu.ns_per_syscall", "ns", "lower", 0},
	{"sysemu.syscalls_per_kinstr", "1/kinstr", "lower", 0},
	{"sysemu.retries_per_syscall", "ratio", "lower", 0},
	{"remote.ns_per_event_codec", "ns", "lower", 0},
	{"remote.wire_bytes_per_kinstr", "B/kinstr", "lower", 0},
	{"remote.frames_per_kcycle", "1/kcycle", "lower", 0},
	{"remote.codec_share", "share", "lower", 0},
	{"observe.overhead_pct", "%", "higher", 0},
	{"host.allocs_per_kinstr", "1/kinstr", "lower", 0},
	{"host.gcs", "count", "lower", 0},
	{"sim.err_ppm", "ppm", "lower", 0},
	{"sim.fingerprint_match", "count", "higher", 0},
	{"ledger.cpu_ns_per_instr", "ns/instr", "lower", 0},
	{"ledger.cache_ns_per_instr", "ns/instr", "lower", 0},
	{"ledger.interconnect_ns_per_instr", "ns/instr", "lower", 0},
	{"ledger.event_ns_per_instr", "ns/instr", "lower", 0},
	{"ledger.sysemu_ns_per_instr", "ns/instr", "lower", 0},
	{"ledger.remote_ns_per_instr", "ns/instr", "lower", 0},
	{"ledger.unattributed_ns_per_instr", "ns/instr", "lower", 0},
	{"ledger.host_cpu_ns_per_instr", "ns/instr", "lower", 0},
}

// ledgerRows are the per-layer rows that, with the unattributed row, sum to
// ledger.host_cpu_ns_per_instr.
var ledgerRows = []string{"cpu", "cache", "interconnect", "event", "sysemu", "remote"}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary reports a timing the way the benchmark quotes it: a median with
// the extremes and the sample count. No percentile is quoted, since no
// workload gathers ten samples beyond one.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarise(unit string, samples []float64) summary {
	s := summary{Unit: unit, N: len(samples), Samples: samples}
	if len(samples) == 0 {
		return s
	}
	sorted := sortedCopy(samples)
	s.Median, s.Min, s.Max = stats.Median(samples), sorted[0], sorted[len(sorted)-1]
	return s
}

func sortedCopy(v []float64) []float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(v, n=4).
// Fewer than two samples have no spread.
func spread(v []float64) float64 {
	m := len(v)
	if m < 2 {
		return 0
	}
	c := sortedCopy(v)
	quartile := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return math.Abs((quartile(3) - quartile(1)) / stats.Median(v))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
