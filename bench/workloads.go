package main

import (
	"fmt"

	"slacksim/internal/cache"
	"slacksim/internal/core"
	"slacksim/internal/cpu"
)

// A spec is one benchmark workload: a target program at a fixed input
// scale, simulated under one slack scheme by one execution driver at a
// fixed host-core budget. Names read <program><scale>.<scheme>.<driver><hostcores>.
// Every workload uses the paper's 8-core out-of-order target, and its caches
// start cold at the ROI reset.
type spec struct {
	Name      string
	Program   string
	Scale     int
	Scheme    core.Scheme
	Driver    string // fused, parallel, sharded or remote
	HostCores int    // GOMAXPROCS of every child that runs this workload
	// Reps is the rep count of a full run (-out); a contract run
	// (--workload) fills --seconds instead, never with fewer than minReps.
	Reps int
	// ErrBoundPPM is the largest accepted |ROI cycles − oracle| ÷ oracle.
	// Zero demands bit-exact simulated time and no time or coherence warps.
	ErrBoundPPM float64
	Why         string
}

// minReps is the fewest timed reps a workload's medians are taken over.
const minReps = 3

// specs is the benchmark. Scales are the largest whose serial oracle plus
// three reps fit the per-run budget of the benchmark contract (see README);
// lu and barnes are left out until their livelock is fixed.
var specs = []spec{
	{
		Name: "water8.cc.fused1", Program: "water", Scale: 8,
		Scheme: core.SchemeCC, Driver: "fused", HostCores: 1, Reps: 5,
		Why: "compute-bound (about 1 L2 access per kinstr): internal/cpu does nearly all the work; the paper's Table 2 baseline configuration",
	},
	{
		Name: "fft3.s9x.fused1", Program: "fft", Scale: 3,
		Scheme: core.SchemeS9x, Driver: "fused", HostCores: 1, Reps: 5,
		Why: "16K points fill the 256 KB L2 (about 54 L2 accesses per kinstr): cache, directory, interconnect and the event heap carry it",
	},
	{
		Name: "ocean4.cc.par2", Program: "ocean", Scale: 4,
		Scheme: core.SchemeCC, Driver: "parallel", HostCores: 2, Reps: 5,
		Why: "goroutine-per-core fabric synchronising every cycle on 2 host threads: manager round, min-tree, rings and parks dominate",
	},
	{
		Name: "ocean4.s100.par2", Program: "ocean", Scale: 4,
		Scheme: core.SchemeS100, Driver: "parallel", HostCores: 2, Reps: 15, ErrBoundPPM: 20000,
		Why: "same program and driver under a 100-cycle optimistic window: few rounds, big batches; carries the accuracy price (Figure 8 pair of ocean4.cc.par2)",
	},
	{
		Name: "cholesky3.l10.shard2", Program: "cholesky", Scale: 3,
		Scheme: core.SchemeL10, Driver: "sharded", HostCores: 2, Reps: 5,
		Why: "barrier- and lock-heavy on the sharded manager: sysemu, coherence traffic and shard routing",
	},
	{
		Name: "ocean1.s9x.remote2", Program: "ocean", Scale: 1,
		Scheme: core.SchemeS9x, Driver: "remote", HostCores: 2, Reps: 5,
		Why: "two in-process loopback workers over the remote wire protocol: one round trip per window, only codec and RTT matter",
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// smokeSpec shrinks a workload to scale 1 for the smoke run. The name is
// kept, so the smoke run emits the names BENCHMARK.json lists. A scale-1 run
// lasts some 27 k cycles, of which the few hundred cycles an optimistic
// window skews are 2-3 %, so the error bound is widened to 10 %.
func smokeSpec(s spec) spec {
	s.Scale = 1
	s.Reps = 1
	if s.ErrBoundPPM > 0 {
		s.ErrBoundPPM = 100_000
	}
	return s
}

// memShards is the shard count of the sharded and remote workloads.
const memShards = 2

// machineConfig is the target every workload simulates. The oracle of a
// sharded or remote workload is the serial engine on the same sharded
// geometry (the DRAM channel count follows the shard count), which is what
// makes bit-exactness against it meaningful.
func machineConfig(driver string, oracle bool, maxCycles int64) core.Config {
	cfg := core.Config{
		NumCores:   8,
		NumThreads: 8,
		Model:      core.ModelOoO,
		CPU:        cpu.DefaultConfig(),
		Cache:      cache.DefaultConfig(8),
		MaxCycles:  maxCycles,
	}
	switch {
	case driver == "sharded", driver == "remote" && oracle:
		cfg.ManagerShards = memShards
	case driver == "remote":
		cfg.RemoteShards = memShards
	}
	return cfg
}
