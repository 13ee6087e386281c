package core

import (
	"fmt"
	"testing"

	"slacksim/internal/event"
)

// Manager-round cost benchmarks. One round of the old manager paid an O(N)
// clock scan (BenchmarkMinLocalScan) and an O(N) ring scan
// (BenchmarkDrainFullScan) regardless of activity; the new round pays one
// O(1) root read plus — per *active* core — an O(log N) leaf update
// (BenchmarkMinTree) and a dirty-bit drain (BenchmarkDrainDirtySet).
// Numbers are quoted in docs/performance.md ("The threaded fabric").

// BenchmarkMinLocalScan measures the old per-round global-time computation:
// a scan of every core's clock/blocked/floor atomics.
func BenchmarkMinLocalScan(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			m := bareMachine(n, 8)
			for i := 0; i < n; i++ {
				m.publishLocal(i, int64(1000+i))
			}
			b.ResetTimer()
			var sink int64
			for k := 0; k < b.N; k++ {
				sink = scanMin(m)
			}
			_ = sink
		})
	}
}

// BenchmarkMinTree measures the replacement round with one active core, a
// group of one as at K = N: its clock publication with the O(log N) locked
// leaf refresh, plus the manager's O(1) root read. With more than one
// active core per round the scan's cost stays O(N) while the tree's grows
// only with the number of publishers.
func BenchmarkMinTree(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			m := bareMachine(n, 8)
			for i := 0; i < n; i++ {
				m.publishLocal(i, int64(1000+i))
			}
			b.ResetTimer()
			var sink int64
			for k := 0; k < b.N; k++ {
				i := k & (n - 1)
				m.publishLocal(i, int64(1000+k))
				sink = m.lt.root()
			}
			_ = sink
		})
	}
}

// drainBench measures one manager drain round at ~10% ring occupancy: 10%
// of the cores received one request since the last round. The full scan
// pops every ring; the dirty-set drain touches only the marked ones.
func drainBench(b *testing.B, dirty bool) {
	const n = 256
	m := bareMachine(n, 8)
	active := n / 10
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		b.StopTimer()
		for i := 0; i < active; i++ {
			c := (i*37 + k) % n // spread pushes across the dirty words
			m.outQ[c].MustPush(event.Event{Core: int32(c), Time: int64(k)})
			if dirty {
				m.markOutDirty(c)
			}
		}
		b.StartTimer()
		if dirty {
			m.drainDirty(m.gq.Push)
		} else {
			m.drainAll(m.gq.Push)
		}
		b.StopTimer()
		for m.gq.Len() > 0 { // keep the heap from growing across rounds
			m.gq.Pop()
		}
		b.StartTimer()
	}
}

func BenchmarkDrainFullScan(b *testing.B) { drainBench(b, false) }
func BenchmarkDrainDirtySet(b *testing.B) { drainBench(b, true) }
