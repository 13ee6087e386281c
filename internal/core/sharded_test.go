package core

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/workloads"
)

func shardedMachine(t *testing.T, prog *asm.Program, w *workloads.Workload, cores, shards int) *Machine {
	t.Helper()
	cfg := smallConfig(cores)
	cfg.MemSize = 64 << 20
	cfg.MaxCycles = 200_000_000
	cfg.ManagerShards = shards
	m, err := NewMachine(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		if err := w.Init(m.Image(), 1); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestShardedConservativeExact: with S manager shards the conservative
// schemes must still be bit-identical to the serial reference built from
// the same (S-channel) cache configuration — the §2.2 split may not change
// any simulated outcome.
func TestShardedConservativeExact(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep")
	}
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		shards := shards
		ref := runSerial(t, shardedMachine(t, prog, w, 4, shards))
		if ref.Aborted {
			t.Fatal("serial reference aborted")
		}
		for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeS9x} {
			m := shardedMachine(t, prog, w, 4, shards)
			res, err := m.RunParallel(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(m.Image(), res.Output, 1); err != nil {
				t.Fatalf("shards=%d %v: %v", shards, s, err)
			}
			if res.EndTime != ref.EndTime {
				t.Errorf("shards=%d %v: end %d != serial %d", shards, s, res.EndTime, ref.EndTime)
			}
			if res.TimeWarps != 0 || res.CoherenceWarps != 0 {
				t.Errorf("shards=%d %v: warps %d/%d", shards, s, res.TimeWarps, res.CoherenceWarps)
			}
		}
	}
}

// TestShardedOptimistic: unbounded slack with shards still executes the
// workload correctly with bounded distortion.
func TestShardedOptimistic(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep")
	}
	w, err := workloads.Get("radix")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := runSerial(t, shardedMachine(t, prog, w, 4, 2))
	m := shardedMachine(t, prog, w, 4, 2)
	res, err := m.RunParallel(SchemeSU)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(m.Image(), res.Output, 1); err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.EndTime) / float64(ref.EndTime)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("SU sharded ratio %.2f", ratio)
	}
	if res.L2Stats.Accesses == 0 {
		t.Fatal("aggregated shard stats empty")
	}
}

// TestShardedThreads runs the lock/barrier/join program under shards.
func TestShardedThreads(t *testing.T) {
	prog, err := asm.Assemble(threadsProg, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := runSerial(t, shardedMachine(t, prog, nil, 4, 2))
	for _, s := range []Scheme{SchemeCC, SchemeS9x, SchemeS9, SchemeSU} {
		m := shardedMachine(t, prog, nil, 4, 2)
		res, err := m.RunParallel(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != expectTotal(4) {
			t.Fatalf("%v: output %q", s, res.Output)
		}
		if s.Conservative() && res.EndTime != ref.EndTime {
			t.Fatalf("%v: end %d != serial %d", s, res.EndTime, ref.EndTime)
		}
	}
}

func TestShardConfigValidation(t *testing.T) {
	prog, err := asm.Assemble(sumProg, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(2)
	cfg.ManagerShards = 3 // does not divide 8 banks
	if _, err := NewMachine(prog, cfg); err == nil {
		t.Error("3 shards over 8 banks accepted")
	}
	cfg = smallConfig(2)
	cfg.ManagerShards = 2
	cfg.Cache.DRAMChannels = 4
	if _, err := NewMachine(prog, cfg); err == nil {
		t.Error("mismatched DRAM channels accepted")
	}
}
