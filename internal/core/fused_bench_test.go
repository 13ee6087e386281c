package core

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/cpu"
	"slacksim/internal/workloads"
)

// BenchmarkRunFused times the single-goroutine engine (RunFused, K = 1) on
// the programs and schemes of the two fused1 benchmark workloads, at scale
// 1 on their 8-core target: water under CC, fft under S9*. Machine set-up
// and verification are outside the timer, and a 32 MB target memory keeps
// the set-up's zeroing small in a profile, so
//
//	go test -run '^$' -bench RunFused -cpuprofile cpu.prof ./internal/core/
//
// profiles the whole simulation — core model, caches, event fabric and
// manager — with the standard toolchain.
func BenchmarkRunFused(b *testing.B) {
	for _, tc := range []struct {
		program string
		scheme  Scheme
	}{{"water", SchemeCC}, {"fft", SchemeS9x}} {
		b.Run(tc.program, func(b *testing.B) {
			w, err := workloads.Get(tc.program)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := asm.Assemble(w.Source(1), asm.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var committed int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := NewMachine(prog, Config{
					NumCores: 8, NumThreads: 8, Model: ModelOoO,
					CPU: cpu.DefaultConfig(), Cache: cache.DefaultConfig(8),
					MemSize: 32 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Init(m.Image(), 1); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				r, err := m.RunFused(tc.scheme)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if r.Aborted {
					b.Fatalf("aborted at cycle %d", r.EndTime)
				}
				if err := w.Verify(m.Image(), r.Output, 1); err != nil {
					b.Fatal(err)
				}
				committed += r.Committed
				b.StartTimer()
			}
			b.ReportMetric(float64(committed)/b.Elapsed().Seconds()/1e3, "kinstr/s")
		})
	}
}
