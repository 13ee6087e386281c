package core

import (
	"errors"
	"testing"
	"time"

	"slacksim/internal/sysemu"
)

// deadlockProg acquires a lock twice: the second acquisition can never be
// granted, so the machine must abort — via certain-deadlock detection (every
// live thread blocked in the kernel) — instead of hanging the host.
const deadlockProg = `
main:
    li   a0, 8192
    syscall 5        # lock
    li   a0, 8192
    syscall 5        # self-deadlock
    li   a0, 0
    syscall 0
.data
.align 8
lk: .dword 0
`

func TestWatchdogAbortsDeadlock(t *testing.T) {
	cfg := smallConfig(2, ModelOoO)
	cfg.StallTimeout = 2 * time.Second
	m := mustMachine(t, deadlockProg, cfg)
	start := time.Now()
	_, err := m.RunParallel(SchemeS9)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want StallError, got %v", err)
	}
	if !stall.Deadlock {
		t.Errorf("deadlock not classified as certain: %v", err)
	}
	// The forensic report must carry per-core clocks and the held lock's owner.
	if n := len(stall.Report.Cores); n != 2 {
		t.Fatalf("report has %d cores, want 2", n)
	}
	if stall.Report.Cores[0].Local < 0 {
		t.Errorf("core 0 clock missing: %+v", stall.Report.Cores[0])
	}
	if stall.Report.Kernel == nil {
		t.Fatal("report has no kernel forensics")
	}
	var lk *sysemu.LockInfo
	for i := range stall.Report.Kernel.Locks {
		if stall.Report.Kernel.Locks[i].Addr == 8192 {
			lk = &stall.Report.Kernel.Locks[i]
		}
	}
	if lk == nil {
		t.Fatalf("held lock 8192 absent from report: %+v", stall.Report.Kernel.Locks)
	}
	if lk.Owner != 0 {
		t.Errorf("lock owner = c%d, want c0", lk.Owner)
	}
	if wall := time.Since(start); wall > 20*time.Second {
		t.Fatalf("deadlock detection took %v", wall)
	}
}

// Deadlock detection is engine-independent: the serial reference must reach
// the same verdict with the same forensics.
func TestSerialDeadlockDetection(t *testing.T) {
	cfg := smallConfig(2, ModelOoO)
	m := mustMachine(t, deadlockProg, cfg)
	start := time.Now()
	_, err := runSerialErr(m)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want StallError, got %v", err)
	}
	if !stall.Deadlock {
		t.Errorf("deadlock not classified as certain: %v", err)
	}
	if wall := time.Since(start); wall > 20*time.Second {
		t.Fatalf("serial deadlock detection took %v", wall)
	}
}

func TestMaxCyclesAbort(t *testing.T) {
	// An infinite loop must hit the cycle limit, not spin the host forever.
	cfg := smallConfig(1, ModelOoO)
	cfg.MaxCycles = 20000
	m := mustMachine(t, "main:\n j main\n", cfg)
	res, err := m.RunParallel(SchemeSU)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("infinite loop did not abort")
	}
	res2 := runSerial(t, mustMachine(t, "main:\n j main\n", cfg))
	if !res2.Aborted {
		t.Fatal("serial infinite loop did not abort")
	}
}

func TestConfigValidation(t *testing.T) {
	prog := mustMachine(t, sumProg, smallConfig(1, ModelOoO)).Image().Prog
	if _, err := NewMachine(prog, Config{NumCores: 0}); err == nil {
		t.Error("zero cores accepted")
	}
	bad := smallConfig(2, ModelOoO)
	bad.Cache.NumCores = 4 // mismatched cache geometry
	if _, err := NewMachine(prog, bad); err == nil {
		t.Error("mismatched cache core count accepted")
	}
	bad = smallConfig(1, ModelOoO)
	bad.CPU.ROBSize = 65 // the issue queue's slot masks are one word
	if _, err := NewMachine(prog, bad); err == nil {
		t.Error("ROBSize 65 accepted")
	}
}

func TestInvalidSchemeRejected(t *testing.T) {
	m := mustMachine(t, sumProg, smallConfig(1, ModelOoO))
	if _, err := m.RunParallel(Scheme{Kind: Quantum, Window: 0}); err == nil {
		t.Error("Q0 accepted")
	}
}
