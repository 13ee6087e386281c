package cpu

import (
	"testing"

	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/isa"
	"slacksim/internal/mem"
)

// TestSyscallRetryProtocol covers the legacy retry reply (Flag=true): the
// core must re-issue the call and complete on the eventual grant. The
// kernel no longer sends retries (blocking calls sleep on wait queues),
// but the protocol remains supported for alternative kernels.
func TestSyscallRetryProtocol(t *testing.T) {
	var sent []event.Event
	env := Env{
		ID:       0,
		Mem:      mem.New(1 << 20),
		CacheCfg: cache.DefaultConfig(1),
		Send:     func(ev event.Event) { sent = append(sent, ev) },
	}
	// Program: one syscall then spin forever.
	prog := []isa.Inst{
		{Op: isa.OpSYSCALL, Rd: isa.RegRV, Imm: 5},
		{Op: isa.OpJAL, Rd: isa.RegZero, Imm: 0}, // self-loop
	}
	for i, in := range prog {
		env.Mem.StoreWord(0x1000+uint64(i)*8, in.Encode())
	}
	c := mustCore(env)
	c.Start(0x1000, 1<<19, 0)

	now := int64(0)
	step := func() {
		c.Tick(now)
		now++
	}
	// Run until the syscall event appears, answering fetch misses.
	syscalls := 0
	for i := 0; i < 2000 && syscalls == 0; i++ {
		step()
		for _, ev := range sent {
			switch ev.Kind {
			case event.KFetch:
				c.Deliver(event.Event{Kind: event.KFill, Time: now, Addr: ev.Addr, Aux: int64(cache.Exclusive)}, now)
			case event.KSyscall:
				syscalls++
			}
		}
		sent = sent[:0]
	}
	if syscalls != 1 {
		t.Fatal("syscall not issued")
	}
	// Reply: retry.
	c.Deliver(event.Event{Kind: event.KSyscallDone, Time: now, Flag: true}, now)
	reissued := false
	for i := 0; i < 2000 && !reissued; i++ {
		step()
		for _, ev := range sent {
			if ev.Kind == event.KSyscall {
				reissued = true
			}
		}
		sent = sent[:0]
	}
	if !reissued {
		t.Fatal("retry did not re-issue the syscall")
	}
	if c.Stats().Retries != 1 {
		t.Fatalf("retries = %d", c.Stats().Retries)
	}
	// Grant completes it; the core proceeds (commits the syscall).
	before := c.Stats().Committed
	c.Deliver(event.Event{Kind: event.KSyscallDone, Time: now, Aux: 1}, now)
	for i := 0; i < 100; i++ {
		step()
	}
	if c.Stats().Committed <= before {
		t.Fatal("syscall never committed after grant")
	}
}
