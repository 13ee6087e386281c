package workloads

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/core"
	"slacksim/internal/cpu"
)

// runWorkload assembles, loads, initialises, simulates (serial reference
// engine), and verifies one workload.
func runWorkload(t *testing.T, name string, threads, scale int) *core.Result {
	t.Helper()
	w, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(scale), asm.Options{})
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	cfg := core.Config{
		NumCores:   threads,
		NumThreads: threads,
		CPU:        cpu.DefaultConfig(),
		Cache:      cache.DefaultConfig(threads),
		MemSize:    64 << 20,
		MaxCycles:  500_000_000,
	}
	m, err := core.NewMachine(prog, cfg)
	if err != nil {
		t.Fatalf("%s: machine: %v", name, err)
	}
	if err := w.Init(m.Image(), scale); err != nil {
		t.Fatalf("%s: init: %v", name, err)
	}
	res := runSerial(t, m)
	if res.Aborted {
		t.Fatalf("%s: aborted at %d cycles (output %q)", name, res.EndTime, res.Output)
	}
	if err := w.Verify(m.Image(), res.Output, scale); err != nil {
		t.Fatalf("%s: verify: %v", name, err)
	}
	return res
}

func TestFFTSerial(t *testing.T) {
	res := runWorkload(t, "fft", 4, 1)
	t.Logf("fft: %d cycles, %d instrs", res.EndTime, res.Committed)
}

func TestFFTSingleThread(t *testing.T) {
	runWorkload(t, "fft", 1, 1)
}
