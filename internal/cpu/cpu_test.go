package cpu

import (
	"math"
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/isa"
	"slacksim/internal/mem"
	"slacksim/internal/sysemu"
)

// bench drives a single core against a miniature manager that answers
// memory requests with fixed-latency fills and system calls through a real
// sysemu kernel — a one-core serial engine for unit-testing the core.
type bench struct {
	t      testing.TB
	core   *OoO
	mem    *mem.Memory
	kernel *sysemu.Kernel
	sent   []event.Event
	inbox  []event.Event
	now    int64
	fills  int
	sys    int
	done   bool
	code   int64
	// checkIQ runs the issue-queue invariant check after every tick
	// (tests only: benchmarks time step without it).
	checkIQ bool
}

// newBench assembles src and starts a core on it.
func newBench(t testing.TB, src string) *bench {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, isTest := t.(*testing.T)
	b := &bench{t: t, checkIQ: isTest}
	b.mem = mem.New(4 << 20)
	if err := b.mem.WriteBytes(prog.TextBase, prog.TextBytes()); err != nil {
		t.Fatal(err)
	}
	if err := b.mem.WriteBytes(prog.DataBase, prog.Data); err != nil {
		t.Fatal(err)
	}
	img := &sysemu.Image{
		HeapStart: 1 << 20, HeapLimit: 2 << 20,
		StackTop: func(int) uint64 { return 3 << 20 },
		LoadByte: b.mem.Load8,
	}
	b.kernel = sysemu.NewKernel(img, 1, 1)
	b.kernel.Notify = func(core int, t int64, ret int64) {
		b.inbox = append(b.inbox, event.Event{Kind: event.KSyscallDone, Time: t + 10, Aux: ret})
	}
	env := Env{
		ID:       0,
		Mem:      b.mem,
		CacheCfg: cache.DefaultConfig(1),
		Send:     func(ev event.Event) { b.sent = append(b.sent, ev) },
	}
	b.core = mustCore(env)
	b.core.Start(prog.Entry, 3<<20, 0)
	return b
}

// mustCore builds a core from the default config, panicking on the
// (impossible for DefaultConfig) geometry error.
func mustCore(env Env) *OoO {
	c, err := NewOoO(DefaultConfig(), env)
	if err != nil {
		panic(err)
	}
	return c
}

// manager answers pending requests.
func (b *bench) manage() {
	for _, ev := range b.sent {
		switch ev.Kind {
		case event.KFetch, event.KReadShared:
			b.fills++
			b.inbox = append(b.inbox, event.Event{Kind: event.KFill, Time: ev.Time + 10, Addr: ev.Addr, Aux: int64(cache.Exclusive)})
		case event.KReadExcl, event.KUpgrade:
			b.fills++
			b.inbox = append(b.inbox, event.Event{Kind: event.KFill, Time: ev.Time + 10, Addr: ev.Addr, Aux: int64(cache.Modified)})
		case event.KSyscall:
			b.sys++
			res := b.kernel.Syscall(0, ev.Time, ev.Aux, ev.Args)
			for _, eff := range res.Effects {
				if eff.Kind == sysemu.EffectEndSim {
					b.done = true
					b.code = eff.Code
					b.core.Stop() // as the engine would on KStop/end
				}
			}
			if !res.Block {
				b.inbox = append(b.inbox, event.Event{Kind: event.KSyscallDone, Time: ev.Time + 10, Aux: res.Ret, Flag: res.Retry})
			}
		}
	}
	b.sent = b.sent[:0]
}

func (b *bench) step() {
	kept := b.inbox[:0]
	for _, ev := range b.inbox {
		if ev.Time <= b.now {
			b.core.Deliver(ev, b.now)
		} else {
			kept = append(kept, ev)
		}
	}
	b.inbox = kept
	progressed := b.core.Tick(b.now)
	if b.checkIQ {
		if err := checkIQ(b.core); err != nil {
			b.t.Fatalf("cycle %d: issue queue: %v", b.now, err)
		}
	}
	b.now++
	b.manage()
	if !progressed && len(b.inbox) == 0 {
		// Emulate the engine's fast-forward.
		if next := b.core.NextWork(b.now); next != math.MaxInt64 && next > b.now {
			b.core.Skip(next - b.now)
			b.now = next
		}
	} else if len(b.inbox) > 0 && !progressed {
		min := b.inbox[0].Time
		for _, ev := range b.inbox[1:] {
			if ev.Time < min {
				min = ev.Time
			}
		}
		if min > b.now {
			b.core.Skip(min - b.now)
			b.now = min
		}
	}
}

// run executes until the workload exits or the cycle limit trips.
func (b *bench) run(limit int64) {
	b.t.Helper()
	for !b.done && b.now < limit {
		b.step()
	}
	if !b.done {
		b.t.Fatalf("no exit after %d cycles", limit)
	}
}

func (b *bench) word(t *testing.T, addr uint64) uint64 {
	t.Helper()
	v, ok := b.mem.LoadWord(addr)
	if !ok {
		t.Fatalf("bad word address %#x", addr)
	}
	return v
}

const aluProg = `
main:
    li   r8, 6
    li   r9, 7
    mul  r10, r8, r9
    li   r11, 100
    div  r12, r11, r8      # 16
    rem  r13, r11, r8      # 4
    sub  r14, r10, r12     # 26
    xor  r15, r14, r13     # 30
    slli r16, r15, 2       # 120
    srai r17, r16, 1       # 60
    la   r18, out
    sd   r17, 0(r18)
    li   a0, 0
    syscall 0
.data
.align 8
out: .dword 0
`

func TestALUChain(t *testing.T) {
	b := newBench(t, aluProg)
	b.run(100000)
	if v := b.word(t, 0x2000); v != 60 {
		t.Errorf("out = %d, want 60", v)
	}
}

const fpProg = `
main:
    la   r8, vals
    fld  f1, 0(r8)
    fld  f2, 8(r8)
    fadd f3, f1, f2
    fmul f4, f3, f3
    fsqrt f5, f4          # |f1+f2| = 4
    fcvt.w.d r9, f5
    la   r10, out
    sd   r9, 0(r10)
    fle  r11, f1, f2
    sd   r11, 8(r10)
    li   a0, 0
    syscall 0
.data
.align 8
vals: .double 1.5, 2.5
out:  .dword 0, 0
`

func TestFPPipeline(t *testing.T) {
	b := newBench(t, fpProg)
	b.run(100000)
	if v := b.word(t, 0x2010); v != 4 {
		t.Errorf("sqrt result = %d, want 4", v)
	}
	if v := b.word(t, 0x2018); v != 1 {
		t.Errorf("fle = %d, want 1", v)
	}
}

const branchProg = `
# Sum odd numbers in 0..99 with a data-dependent branch.
main:
    li   r8, 0            # i
    li   r9, 100
    li   r10, 0           # sum
loop:
    andi r11, r8, 1
    beqz r11, skip
    add  r10, r10, r8
skip:
    addi r8, r8, 1
    blt  r8, r9, loop
    la   r12, out
    sd   r10, 0(r12)
    li   a0, 0
    syscall 0
.data
.align 8
out: .dword 0
`

func TestBranchRecovery(t *testing.T) {
	b := newBench(t, branchProg)
	b.run(200000)
	if v := b.word(t, 0x2000); v != 2500 {
		t.Fatalf("sum = %d, want 2500", v)
	}
	st := b.core.Stats()
	if st.Branches == 0 {
		t.Fatal("no branches counted")
	}
	if st.Mispred == 0 {
		t.Fatal("alternating branch never mispredicted (predictor suspiciously perfect)")
	}
	if st.Squashed == 0 {
		t.Fatal("mispredictions squashed nothing")
	}
}

const forwardProg = `
# Store then immediately load the same address: exercises store-to-load
# forwarding in the OoO core.
main:
    la   r8, slot
    li   r9, 1234
    sd   r9, 0(r8)
    ld   r10, 0(r8)
    addi r10, r10, 1
    sd   r10, 8(r8)
    li   a0, 0
    syscall 0
.data
.align 8
slot: .dword 0, 0
`

func TestStoreToLoadForwarding(t *testing.T) {
	b := newBench(t, forwardProg)
	b.run(100000)
	if v := b.word(t, 0x2008); v != 1235 {
		t.Fatalf("forwarded value = %d, want 1235", v)
	}
}

const amoProg = `
main:
    la   r8, ctr
    li   r9, 5
    amoadd r10, r8, r9    # old 100 -> 105
    li   r11, 300
    amoswap r12, r8, r11  # old 105 -> 300
    li   r13, 300
    li   r14, 77
    mv   r15, r14
    cas  r15, r8, r13     # swaps in 77, old 300
    la   r16, out
    sd   r10, 0(r16)
    sd   r12, 8(r16)
    sd   r15, 16(r16)
    li   a0, 0
    syscall 0
.data
.align 8
ctr: .dword 100
out: .dword 0, 0, 0
`

func TestAMOs(t *testing.T) {
	b := newBench(t, amoProg)
	b.run(100000)
	if v := b.word(t, 0x2000); v != 77 {
		t.Errorf("ctr = %d, want 77", v)
	}
	if v := b.word(t, 0x2008); v != 100 {
		t.Errorf("amoadd old = %d", v)
	}
	if v := b.word(t, 0x2010); v != 105 {
		t.Errorf("amoswap old = %d", v)
	}
	if v := b.word(t, 0x2018); v != 300 {
		t.Errorf("cas old = %d", v)
	}
}

func TestMissTrafficCounted(t *testing.T) {
	b := newBench(t, aluProg)
	b.run(100000)
	if b.fills == 0 {
		t.Fatal("no fills requested (cold caches must miss)")
	}
	st := b.core.Stats()
	if st.L1I.Misses == 0 {
		t.Fatal("no I-cache misses counted")
	}
	if st.Committed == 0 || st.Cycles == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestSyscallRoundTrips(t *testing.T) {
	b := newBench(t, aluProg)
	b.run(100000)
	if b.sys != 1 {
		t.Fatalf("syscall events = %d, want 1", b.sys)
	}
	if b.code != 0 {
		t.Fatalf("exit code = %d", b.code)
	}
}

func TestWaitingSyscall(t *testing.T) {
	// A lock that is never granted leaves the core in WaitingSyscall with
	// NextWork = infinity.
	b := newBench(t, `
main:
    li a0, 64
    syscall 5      # lock (kernel grants; then lock again below never returns)
    li a0, 64
    syscall 5
    li a0, 0
    syscall 0
`)
	// Pre-acquire the lock for a phantom second core so the second lock
	// call blocks forever.
	b.kernel.Syscall(0, 0, sysemu.SysLock, [4]int64{64})
	for i := 0; i < 20000 && !b.core.WaitingSyscall(); i++ {
		b.step()
	}
	if !b.core.WaitingSyscall() {
		t.Fatal("core never entered WaitingSyscall")
	}
	if next := b.core.NextWork(b.now); next != math.MaxInt64 {
		t.Fatalf("blocked core NextWork = %d, want infinity", next)
	}
}

func TestStopClearsState(t *testing.T) {
	b := newBench(t, `
main:
    addi r8, r8, 1
    j    main
`)
	for i := 0; i < 30; i++ {
		b.step()
	}
	b.core.Stop()
	if b.core.Active() {
		t.Fatal("active after Stop")
	}
	// Idle ticks must not panic and must report no progress.
	for i := 0; i < 10; i++ {
		if b.core.Tick(b.now) {
			t.Fatal("stopped core reported progress")
		}
		b.now++
	}
	// A stale fill after Stop must be ignored gracefully.
	b.core.Deliver(event.Event{Kind: event.KFill, Time: b.now, Addr: 0x1000, Aux: int64(cache.Shared)}, b.now)
}

func TestSkipAccounting(t *testing.T) {
	b := newBench(t, aluProg)
	st := b.core.Stats()
	b.core.Skip(25)
	if st.Skipped != 25 || st.Cycles < 25 {
		t.Fatalf("skip accounting: %+v", st)
	}
}

func TestROIMarking(t *testing.T) {
	b := newBench(t, branchProg)
	for i := 0; i < 50; i++ {
		b.step()
	}
	b.core.MarkROI(b.now)
	st := b.core.Stats()
	if !st.ROIMarked || st.ROIStartCycles == 0 {
		t.Fatalf("ROI not marked: %+v", st)
	}
	before := st.ROICommitted()
	b.run(100000)
	if st.ROICommitted() <= before {
		t.Fatal("ROI committed did not advance")
	}
	if st.ROICommitted() >= st.Committed {
		t.Fatal("ROI committed not smaller than total")
	}
}

// TestExecALUTable spot-checks functional semantics including the
// division-by-zero conventions that keep wrong paths host-safe.
func TestExecALUTable(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
		want int64
	}{
		{isa.OpADD, 2, 3, 5},
		{isa.OpSUB, 2, 3, -1},
		{isa.OpMUL, -4, 6, -24},
		{isa.OpDIV, 7, 2, 3},
		{isa.OpDIV, 7, 0, -1},
		{isa.OpDIV, math.MinInt64, -1, math.MinInt64},
		{isa.OpREM, 7, 0, 7},
		{isa.OpREM, math.MinInt64, -1, 0},
		{isa.OpSLL, 1, 70, 64}, // shift amounts mask to 6 bits
		{isa.OpSRL, -8, 1, int64(uint64(0xFFFFFFFFFFFFFFF8) >> 1)},
		{isa.OpSRA, -8, 1, -4},
		{isa.OpSLT, -1, 0, 1},
		{isa.OpSLTU, -1, 0, 0},
	}
	for _, c := range cases {
		res := execALU(isa.Inst{Op: c.op, Rd: 1, Rs1: 2, Rs2: 3}, 0, c.a, c.b, 0, 0)
		if !res.writesInt || res.intVal != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, res.intVal, c.want)
		}
	}
}

func TestExecBranches(t *testing.T) {
	pc := uint64(0x1000)
	res := execALU(isa.Inst{Op: isa.OpBEQ, Imm: 64}, pc, 5, 5, 0, 0)
	if !res.isCTI || !res.taken || res.next != pc+64 {
		t.Errorf("taken beq: %+v", res)
	}
	res = execALU(isa.Inst{Op: isa.OpBEQ, Imm: 64}, pc, 5, 6, 0, 0)
	if res.taken || res.next != pc+8 {
		t.Errorf("not-taken beq: %+v", res)
	}
	res = execALU(isa.Inst{Op: isa.OpJALR, Rd: 1, Imm: 4}, pc, 0x2000, 0, 0, 0)
	if res.next != 0x2004 || res.intVal != int64(pc+8) {
		t.Errorf("jalr: %+v", res)
	}
}

func TestSaturatingConvert(t *testing.T) {
	if v := saturatingInt(math.NaN()); v != 0 {
		t.Errorf("NaN -> %d", v)
	}
	if v := saturatingInt(1e300); v != math.MaxInt64 {
		t.Errorf("+huge -> %d", v)
	}
	if v := saturatingInt(-1e300); v != math.MinInt64 {
		t.Errorf("-huge -> %d", v)
	}
	if v := saturatingInt(-2.9); v != -2 {
		t.Errorf("truncate -> %d", v)
	}
}

func TestPredictorTraining(t *testing.T) {
	cfg := DefaultConfig()
	p := newPredictor(&cfg)
	pre := func(in isa.Inst) *Pre {
		q := makePre(&cfg, in)
		return &q
	}
	br := pre(isa.Inst{Op: isa.OpBNE, Imm: -64})
	pc := uint64(0x4000)
	// Initially weakly not-taken.
	if _, taken := p.predict(br, pc); taken {
		t.Fatal("cold predictor predicted taken")
	}
	for i := 0; i < 4; i++ {
		p.update(br, pc, true, pc-64)
	}
	if _, taken := p.predict(br, pc); !taken {
		t.Fatal("trained predictor still predicts not-taken")
	}
	// RAS: call pushes, return pops.
	call := pre(isa.Inst{Op: isa.OpJAL, Rd: isa.RegRA, Imm: 256})
	p.predict(call, 0x5000)
	ret := pre(isa.Inst{Op: isa.OpJALR, Rd: isa.RegZero, Rs1: isa.RegRA})
	next, _ := p.predict(ret, 0x6000)
	if next != 0x5008 {
		t.Fatalf("RAS predicted %#x, want 0x5008", next)
	}
	// BTB for indirect jumps.
	ind := pre(isa.Inst{Op: isa.OpJALR, Rd: isa.RegZero, Rs1: 8})
	p.update(ind, 0x7000, true, 0x9000)
	if next, _ := p.predict(ind, 0x7000); next != 0x9000 {
		t.Fatalf("BTB predicted %#x", next)
	}
}
