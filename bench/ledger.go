package main

import (
	"fmt"
	"math/rand"

	"slacksim/internal/stats"
)

// unitCosts are the probes' results: host ns per operation of each layer
// that has public functions to time.
type unitCosts struct {
	CPU      float64 // per ticked cycle of one OoO core
	L2       float64 // per L2System.Access + DrainBackInvs
	Traverse float64 // per Crossbar.Traverse
	Heap     float64 // per Heap.Push + Pop
	Ring     float64 // per Ring.Push + PopBatch share
	Syscall  float64 // per Kernel.Syscall
	Codec    float64 // per event through AppendBatch + DecodeBatch
}

// Probe lengths, in operations. Each probe runs a few tenths of a second.
const (
	cpuProbeTicks = 2_000_000
	probeOps      = 4_000_000
)

// runProbes times every layer's public functions over streams generated
// from seed. div shortens the probes (the smoke run passes 100); batch is
// the mean wire batch of the workload's traced run.
func runProbes(sl *spanLog, s spec, seed int64, div, batch int) (unitCosts, error) {
	var u unitCosts
	var err error
	probe := func(name string, f func(rng *rand.Rand)) {
		id := sl.begin("probe."+name, s.Name, 0)
		f(rand.New(rand.NewSource(seed)))
		sl.end(id)
	}
	probe("cpu", func(*rand.Rand) { u.CPU, err = probeCPU(s.Program, s.Scale, cpuProbeTicks/div) })
	if err != nil {
		return u, err
	}
	probe("cache", func(rng *rand.Rand) { u.L2, err = probeCache(rng, probeOps/div) })
	if err != nil {
		return u, err
	}
	probe("interconnect", func(rng *rand.Rand) { u.Traverse = probeInterconnect(rng, probeOps/div) })
	probe("event.heap", func(rng *rand.Rand) { u.Heap = probeHeap(rng, probeOps/div) })
	probe("event.ring", func(rng *rand.Rand) { u.Ring = probeRing(rng, probeOps/div) })
	probe("sysemu", func(rng *rand.Rand) { u.Syscall = probeSysemu(rng, probeOps/div) })
	probe("remote", func(rng *rand.Rand) { u.Codec, err = probeCodec(rng, probeOps/div, batch) })
	return u, err
}

// wireBatch is the mean number of events per wire batch of the last traced
// rep, or 8 for a workload that has no wire.
func wireBatch(traced []rep) int {
	if len(traced) > 0 {
		if w := traced[len(traced)-1].Wire; w != nil && w.Parent.BatchesSent+w.Parent.BatchesRecv > 0 {
			return int(ratio(float64(w.Parent.EventsSent+w.Parent.EventsRecv), float64(w.Parent.BatchesSent+w.Parent.BatchesRecv)) + 0.5)
		}
	}
	return 8
}

func repSamples(reps []rep, f func(r rep) float64) []float64 {
	var out []float64
	for _, r := range reps {
		if r.Failure == "" {
			out = append(out, f(r))
		}
	}
	return out
}

func kips(r rep) float64          { return ratio(float64(r.Committed)/1e3, r.WallS) }
func cpuNSPerInstr(r rep) float64 { return ratio(r.CPUS*1e9, float64(r.Committed)) }

// layerMetrics derives every per-layer metric of one workload. Counts come
// from the last good traced rep t, times that tracing would inflate from the
// untraced reps, unit costs from the probes.
//
// The ledger multiplies each unit cost by the number of times the traced run
// did that operation and divides by the committed instructions. Its rows and
// the unattributed remainder sum to the untraced reps' median
// host_cpu_ns_per_instr. internal/core has no row: the manager round,
// min-tree, parks and spins have no public function to time, so they are
// what the remainder mostly holds on the two-thread drivers.
func layerMetrics(s spec, oracle rep, untraced, traced []rep, u unitCosts, recorded bool) (map[string]value, error) {
	var t *rep
	for i := range traced {
		if traced[i].Failure == "" {
			t = &traced[i]
		}
	}
	if t == nil || len(repSamples(untraced, kips)) == 0 {
		return nil, fmt.Errorf("%s: no good traced and untraced rep to derive layer metrics from", s.Name)
	}
	instr := float64(t.Committed)
	kinstr := instr / 1e3
	kcycle := float64(t.Sim.ROICycles) / 1e3
	l2 := t.Sim.L2
	med := func(f func(r rep) float64) float64 { return stats.Median(repSamples(untraced, f)) }

	v := map[string]float64{
		"asm.assemble_s":     med(func(r rep) float64 { return r.AssembleS }),
		"loader.machine_s":   med(func(r rep) float64 { return r.MachineS }),
		"workloads.init_s":   med(func(r rep) float64 { return r.InitS }),
		"workloads.verify_s": med(func(r rep) float64 { return r.VerifyS }),

		"cpu.ns_per_cycle":        u.CPU,
		"cpu.ipc":                 ratio(instr, float64(t.Sim.ROICycles)),
		"cpu.l1d_miss_per_kinstr": ratio(float64(t.L1DMisses), kinstr),
		"cpu.skipped_cycle_share": ratio(float64(t.Skipped), float64(t.CoreCycles)),

		"cache.ns_per_l2_access":       u.L2,
		"cache.l2_access_per_kinstr":   ratio(float64(l2.Accesses), kinstr),
		"cache.l2_miss_ratio":          ratio(float64(l2.Misses), float64(l2.Accesses)),
		"cache.inv_per_l2_access":      ratio(float64(l2.InvsSent), float64(l2.Accesses)),
		"interconnect.ns_per_traverse": u.Traverse,

		"event.ns_per_heap_op":    u.Heap,
		"event.ns_per_ring_op":    u.Ring,
		"event.events_per_kinstr": ratio(float64(t.Events), kinstr),

		"core.manager_busy_share":  ratio(t.ManagerBusyS, t.WallS),
		"core.core_wait_share":     ratio(t.CoreWaitS, t.CoreBusyS),
		"core.parks_per_kcycle":    ratio(float64(t.Parks), kcycle),
		"core.straggler_top_share": t.StragglerTop,

		"sysemu.ns_per_syscall":      u.Syscall,
		"sysemu.syscalls_per_kinstr": ratio(float64(t.KernelCalls), kinstr),
		"sysemu.retries_per_syscall": ratio(float64(t.Retries), float64(t.Syscalls)),

		"remote.ns_per_event_codec": u.Codec,

		"observe.overhead_pct":   100 * ratio(stats.Median(repSamples(traced, kips))-med(kips), med(kips)),
		"host.allocs_per_kinstr": med(func(r rep) float64 { return ratio(float64(r.HostAllocs), float64(r.Committed)/1e3) }),
		"host.gcs":               med(func(r rep) float64 { return float64(r.HostGCs) }),
		"sim.err_ppm":            med(func(r rep) float64 { return errPPM(r.Sim, oracle.Sim) }),
	}
	if recorded {
		v["sim.fingerprint_match"] = 1
	}

	// Every event crosses the GQ heap once. On the goroutine drivers it also
	// crosses a core's OutQ ring, and every reply (one per event, plus the
	// invalidations and downgrades the directory sends) an InQ ring; the
	// fused driver has no rings.
	ringOps := 0.0
	if s.Driver != "fused" {
		ringOps = float64(2*t.Events + l2.InvsSent + l2.Downgrades)
	}
	// Access makes one traversal itself, so the cache row leaves it to the
	// interconnect row, which also counts the writebacks' traversals.
	var wireEvents, wireBytes, wireFrames, codecNS float64
	if w := t.Wire; w != nil {
		wireEvents = float64(w.Parent.EventsSent + w.Parent.EventsRecv)
		wireBytes = float64(w.Parent.BytesSent + w.Parent.BytesRecv)
		wireFrames = float64(w.Parent.FramesSent + w.Parent.FramesRecv)
		codecNS = float64(w.Parent.EncodeNS + w.Parent.DecodeNS + w.Workers.EncodeNS + w.Workers.DecodeNS)
	}
	v["remote.wire_bytes_per_kinstr"] = ratio(wireBytes, kinstr)
	v["remote.frames_per_kcycle"] = ratio(wireFrames, kcycle)
	v["remote.codec_share"] = ratio(codecNS, t.CPUS*1e9)

	rows := map[string]float64{
		"cpu":          u.CPU * float64(t.CoreCycles-t.Skipped),
		"cache":        (u.L2 - u.Traverse) * float64(l2.Accesses),
		"interconnect": u.Traverse * float64(l2.Accesses+l2.L1Writebacks),
		"event":        u.Heap*float64(t.Events) + u.Ring*ringOps,
		"sysemu":       u.Syscall * float64(t.KernelCalls),
		"remote":       u.Codec * wireEvents,
	}
	total := med(cpuNSPerInstr)
	rest := total
	for _, name := range ledgerRows {
		row := ratio(rows[name], instr)
		v["ledger."+name+"_ns_per_instr"] = row
		rest -= row
	}
	v["ledger.unattributed_ns_per_instr"] = rest
	v["ledger.host_cpu_ns_per_instr"] = total

	out := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = value{Value: v[d.Name], Unit: d.Unit}
	}
	return out, nil
}
