package core

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/remote"
	"slacksim/internal/workloads"
)

// allocLoopProg runs long enough (~400k committed instructions) that any
// per-instruction allocation in the engine or core models dominates the
// run's fixed setup allocations by orders of magnitude.
const allocLoopProg = `
main:
    li   r8, 0
    li   r9, 100000
    li   r10, 0
loop:
    add  r10, r10, r8
    addi r8, r8, 1
    blt  r8, r9, loop
    li   a0, 0
    syscall 0
`

// TestDriverAllocsBounded is the driver-level zero-allocation regression
// gate: with metrics disabled, a run's host heap allocations
// (runtime.MemStats delta, captured by every driver entry point) must stay
// a small per-run constant, not scale with committed instructions. The
// bound is deliberately loose — a fixed setup budget plus a fraction of an
// alloc per thousand instructions — because goroutine scheduling and GC
// internals allocate a little nondeterministically; a per-instruction
// allocation regression blows through it by 100x or more.
func TestDriverAllocsBounded(t *testing.T) {
	for _, model := range []CoreModel{ModelInOrder, ModelOoO} {
		for _, parallel := range []bool{false, true} {
			name := fmt.Sprintf("model%d/parallel=%v", model, parallel)
			t.Run(name, func(t *testing.T) {
				m := mustMachine(t, allocLoopProg, smallConfig(1, model))
				var res *Result
				var err error
				if parallel {
					res, err = m.RunParallel(SchemeS9)
				} else {
					res, err = m.RunSerial()
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Aborted {
					t.Fatalf("aborted after %d cycles", res.EndTime)
				}
				if res.Committed < 300_000 {
					t.Fatalf("committed = %d, want a long run", res.Committed)
				}
				// Fixed budget: setup, goroutines, parks, kernel, result
				// assembly. Per-kinstr budget: < 1 alloc per 1000 committed
				// instructions. A single alloc on the per-instruction path
				// would add ~400k allocations here.
				budget := uint64(20_000) + uint64(res.Committed/1000)
				if res.HostAllocs > budget {
					t.Errorf("HostAllocs = %d over %d instrs (%.2f/kinstr), budget %d",
						res.HostAllocs, res.Committed, res.AllocsPerKInstr(), budget)
				}
				t.Logf("HostAllocs=%d (%.3f/kinstr) GCs=%d pause=%v",
					res.HostAllocs, res.AllocsPerKInstr(), res.HostGCs, res.HostGCPauses)
			})
		}
	}
	// The remote driver's steady state allocates per routed batch (the
	// journal's copy of it), not per instruction. Its row runs the remote
	// benchmark's shape — ocean, S9*, two workers behind a loopback TCP
	// listener — against a fixed budget: the measured count plus 25 %.
	t.Run("remote-loopback", func(t *testing.T) {
		if testing.Short() {
			t.Skip("workload run")
		}
		w, err := workloads.Get("ocean")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Assemble(w.Source(1), asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := remoteMachine(t, prog, w, 4, 2)
		transports, join := loopbackWorkers(t, 2)
		res, err := m.RunRemoteSharded(SchemeS9x, transports)
		if err != nil {
			t.Fatal(err)
		}
		log := join()
		if len(log) != 2 {
			t.Errorf("worker log = %q, want one line per session", log)
		}
		for _, line := range log {
			if !strings.Contains(line, ": done (") {
				t.Errorf("worker exit: %s", line)
			}
		}
		const budget = 4500
		if res.HostAllocs > budget {
			t.Errorf("HostAllocs = %d over %d instrs (%.2f/kinstr), budget %d",
				res.HostAllocs, res.Committed, res.AllocsPerKInstr(), budget)
		}
		t.Logf("HostAllocs=%d (%.3f/kinstr) GCs=%d", res.HostAllocs, res.AllocsPerKInstr(), res.HostGCs)
	})
}

// loopbackWorkers serves worker sessions behind a loopback TCP listener
// and returns nw parent connections to it plus a join that closes the
// listener, waits for every session and returns the sessions' log lines.
func loopbackWorkers(t *testing.T, nw int) ([]remote.Transport, func() []string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var log []string
	served := make(chan struct{})
	go func() {
		defer close(served)
		ServeRemoteListener(ln, func(format string, args ...any) {
			mu.Lock()
			log = append(log, fmt.Sprintf(format, args...))
			mu.Unlock()
		})
	}()
	transports := make([]remote.Transport, nw)
	for i := range transports {
		if transports[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	return transports, func() []string {
		ln.Close()
		<-served
		return log
	}
}
