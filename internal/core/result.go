package core

import (
	"runtime"
	"time"

	"slacksim/internal/cache"
	"slacksim/internal/cpu"
	"slacksim/internal/metrics"
)

// Result summarises one simulation run.
type Result struct {
	Scheme   Scheme
	ExitCode int64
	// EndTime is the simulated cycle of the workload's exit syscall (the
	// paper's "execution time", the metric Table 3 compares across
	// schemes). When the run aborts at MaxCycles it is the global time at
	// abort.
	EndTime int64
	// ROIStart is the simulated cycle at which the workload reset
	// statistics (after spawning its threads, §4.1); 0 if never.
	ROIStart int64
	// Committed is the total instructions committed in the region of
	// interest, summed over cores.
	Committed int64
	// Wall is the host wall-clock duration of the run.
	Wall time.Duration
	// Groups is the run's K: how many host goroutines drove the target
	// cores (group.go); 0 on the serial engine.
	Groups int
	// Aborted reports the MaxCycles safety abort.
	Aborted bool
	// Forensics is the engine-state snapshot captured when the run
	// aborted at MaxCycles (nil on clean exits). Watchdog stalls and
	// contained panics return errors instead, carrying their own report.
	Forensics *StallReport
	// Output is everything the workload printed.
	Output string
	// TimeWarps counts kernel synchronisation operations processed out of
	// timestamp order — the workload-level distortion indicator of §3.2.3
	// (0 under conservative schemes).
	TimeWarps int64
	// CoherenceWarps counts directory requests processed out of timestamp
	// order per line — the simulated-system-state distortion of §3.2.2
	// (0 under conservative schemes).
	CoherenceWarps int64
	// BlockedParks counts, per core, how often the core thread hit the
	// window edge and had to wait for the manager.
	BlockedParks []int64
	// CoreStats exposes the per-core counters.
	CoreStats []*cpu.Stats
	// L2Stats exposes the shared-hierarchy counters.
	L2Stats cache.L2Stats

	// Observability results, filled only when EnableMetrics was called
	// before the run (see observe.go).

	// Metrics is the registry attached with EnableMetrics, now holding
	// the end-of-run counter snapshot.
	Metrics *metrics.Registry
	// EventsProcessed is the total number of GQ events the manager (and
	// shard workers) processed.
	EventsProcessed int64
	// ManagerBusy is the host time the manager thread spent on rounds
	// that drained, processed, or slid windows (its productive share of
	// the run; the rest of its time is idle polling).
	ManagerBusy time.Duration
	// CoreBusy is, per core, the total host time its simulation
	// goroutine ran, and CoreWait the share of that spent blocked on the
	// manager (window-edge parks plus optimistic reply freezes).
	// CoreBusy − CoreWait is host time spent actually simulating — the
	// simulate/wait/manager sync-overhead breakdown of the paper's §4.2.
	CoreBusy []time.Duration
	CoreWait []time.Duration
	// Stragglers attributes the run's manager rounds to the cores whose
	// local times held the global time back (latency.go); indexed by
	// core, all-zero counts for the serial engine.
	Stragglers []Straggler
	// Wire holds the wire-protocol traffic counters of a remote-sharded
	// run (nil for in-process runs): the parent connections' side and
	// the workers' own, as shipped in their FStats frames.
	Wire *RemoteWireStats
	// Recovery summarises the fault-tolerance activity of a remote run
	// (nil for in-process runs; all-zero when nothing went wrong):
	// reconnects, journal replays, checkpoints, and degradations.
	Recovery *RecoveryStats

	// Host allocation accounting (runtime.MemStats deltas across the run,
	// captured by every driver entry point). HostAllocs is the number of
	// heap objects allocated while the run executed — the zero-allocation
	// hot loop keeps this flat in instruction count (metrics disabled).
	// HostGCs and HostGCPauses count collections and total stop-the-world
	// pause time triggered during the run.
	HostAllocs   uint64
	HostGCs      uint32
	HostGCPauses time.Duration
}

// AllocsPerKInstr is HostAllocs per thousand committed instructions — the
// steady-state allocation figure the perf docs track (0.0x for a healthy
// hot loop; metrics and tracing add bounded per-run, not per-instruction,
// allocations).
func (r *Result) AllocsPerKInstr() float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(r.HostAllocs) / (float64(r.Committed) / 1e3)
}

// hostMemBaseline snapshots the runtime allocation counters at run start;
// result() reports the deltas. ReadMemStats stops the world, so it runs
// only at the run boundaries, never inside the loops.
type hostMemBaseline struct {
	mallocs uint64
	numGC   uint32
	pauseNS uint64
}

func (m *Machine) captureHostMem() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.hostMem = hostMemBaseline{ms.Mallocs, ms.NumGC, ms.PauseTotalNs}
	m.hostMemValid = true
}

// ROICycles is the simulated execution time of the region of interest.
func (r *Result) ROICycles() int64 { return r.EndTime - r.ROIStart }

// KIPS returns simulated kilo-instructions committed per wall-clock second
// (the Table 2 metric).
func (r *Result) KIPS() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Committed) / 1e3 / r.Wall.Seconds()
}

func (m *Machine) result(wall time.Duration) *Result {
	// An Interrupt() arrives on a foreign goroutine, so it sets an atomic
	// flag rather than racing on the manager-owned bool; fold it in here,
	// after every goroutine has joined, so an interrupted run reports as
	// aborted and carries a forensics snapshot like a MaxCycles abort.
	if m.intr.Load() {
		m.aborted = true
	}
	res := &Result{
		Scheme:       m.scheme,
		ExitCode:     m.exitCode,
		EndTime:      m.endTime,
		Wall:         wall,
		Groups:       m.nGroups,
		Aborted:      m.aborted,
		Output:       m.kernel.Output(),
		TimeWarps:    m.kernel.TimeWarps,
		BlockedParks: m.waitCycles,
		L2Stats:      m.aggregateL2Stats(),
	}
	res.CoherenceWarps = res.L2Stats.OrderViolations
	if m.aborted || m.endTime == 0 {
		res.EndTime = m.global.Load()
	}
	if m.aborted {
		// result() runs after every goroutine joined, so the kernel and
		// GQ are safe to read.
		res.Forensics = m.snapshot(true, 0)
	}
	if t := m.roiTime.Load(); t > 0 {
		res.ROIStart = t
	}
	for _, c := range m.cores {
		st := c.Stats()
		res.CoreStats = append(res.CoreStats, st)
		res.Committed += st.ROICommitted()
	}
	res.Wire = m.remoteWire()
	res.Recovery = m.remoteRecovery()
	if m.hostMemValid {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.HostAllocs = ms.Mallocs - m.hostMem.mallocs
		res.HostGCs = ms.NumGC - m.hostMem.numGC
		res.HostGCPauses = time.Duration(ms.PauseTotalNs - m.hostMem.pauseNS)
	}
	m.publishObservability(res)
	return res
}
