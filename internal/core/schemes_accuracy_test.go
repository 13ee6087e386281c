package core

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/workloads"
)

// TestSchemesOcean is the in-repo miniature of the paper's Table 3: it
// runs the ocean workload under every scheme and checks that conservative
// schemes are cycle-exact against the serial reference while the
// optimistic schemes' execution-time error stays small and ordered
// (S9 < S100 < SU).
func TestSchemesOcean(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme sweep")
	}
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Machine {
		cfg := smallConfig(4)
		cfg.MemSize = 64 << 20
		cfg.MaxCycles = 200_000_000
		m, err := NewMachine(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Init(m.Image(), 1); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := runSerial(t, mk())
	t.Logf("serial: end=%d wall=%v", ref.EndTime, ref.Wall)
	for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9, SchemeS9x, SchemeS100, SchemeSU} {
		m := mk()
		r, err := m.RunParallel(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Verify(m.Image(), r.Output, 1); err != nil {
			t.Errorf("%v: verify: %v", s, err)
		}
		errPct := 100 * float64(r.EndTime-ref.EndTime) / float64(ref.EndTime)
		t.Logf("%-5v end=%-7d err=%+6.2f%% wall=%-12v speedup-vs-serial=%.2f warps=%d",
			s, r.EndTime, errPct, r.Wall, ref.Wall.Seconds()/r.Wall.Seconds(), r.TimeWarps)
		if s.Conservative() {
			if r.EndTime != ref.EndTime {
				t.Errorf("%v: conservative scheme end time %d != serial %d", s, r.EndTime, ref.EndTime)
			}
			if r.TimeWarps != 0 || r.CoherenceWarps != 0 {
				t.Errorf("%v: conservative scheme saw %d time warps, %d coherence warps", s, r.TimeWarps, r.CoherenceWarps)
			}
			continue
		}
		// Optimistic schemes: small, bounded error (generous bounds; the
		// distortion is host-schedule dependent).
		limit := 2.0
		if s == SchemeSU {
			limit = 40.0
		}
		if errPct < 0 {
			errPct = -errPct
		}
		if errPct > limit {
			t.Errorf("%v: error %.2f%% exceeds %.0f%%", s, errPct, limit)
		}
	}
}
