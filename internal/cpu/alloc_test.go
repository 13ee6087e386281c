package cpu

import (
	"encoding/binary"
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/isa"
)

// allocProg exercises every hot-loop path that could plausibly allocate:
// ALU chains, loads and stores (cache hits after warm-up), a data-dependent
// branch, and an unconditional loop-back jump. It never exits, so the
// steady state is pure pipeline work.
const allocProg = `
main:
    la   r8, buf
    li   r9, 0
loop:
    ld   r10, 0(r8)
    addi r10, r10, 1
    sd   r10, 0(r8)
    andi r11, r9, 7
    beqz r11, skip
    xor  r12, r10, r9
skip:
    addi r9, r9, 1
    j    loop
.data
.align 8
buf: .dword 0
`

// TestStepZeroAlloc is the zero-allocation regression gate for the core
// models: after warm-up (caches filled, predecode table built, ring and
// pending buffers at steady-state capacity), one simulated cycle must
// perform zero host heap allocations — for both the out-of-order and the
// in-order pipeline. Any allocation that sneaks back into fetch, dispatch,
// issue, execute, or commit fails this test deterministically, not just as
// a noisy benchmark delta.
func TestStepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inorder bool
	}{
		{"OoO", false},
		{"InOrder", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBenchTB(t, allocProg, tc.inorder)
			for i := 0; i < 20000; i++ {
				b.step()
			}
			if avg := testing.AllocsPerRun(2000, b.step); avg != 0 {
				t.Errorf("steady-state allocations per step = %v, want 0", avg)
			}
		})
	}
}

// TestFetchQueueBounded: under a window that stays full, dispatch never
// drains the fetch queue, and fetch must reuse its array rather than let
// append grow it by an entry per fetched instruction (too slowly for
// TestStepZeroAlloc's per-step average to see).
func TestFetchQueueBounded(t *testing.T) {
	b := newBenchTB(t, missBoundProg(1<<30), false)
	for i := 0; i < 20000; i++ {
		b.step()
	}
	c := b.core.(*OoO)
	if got, want := cap(c.fetchQ), c.cfg.FetchQSize; got != want {
		t.Fatalf("fetch queue capacity %d after 20000 cycles, want %d", got, want)
	}
}

// dispatchMix assembles a representative instruction mix and returns both
// the decoded instructions (for the legacy switch path) and their
// predecoded records (for the threaded-dispatch path), so the two
// benchmarks below measure the same work.
func dispatchMix(tb testing.TB) ([]isa.Inst, []Pre) {
	tb.Helper()
	prog, err := asm.Assemble(`
main:
    addi r8, r8, 1
    add  r9, r8, r8
    xor  r10, r9, r8
    slli r11, r10, 3
    srai r12, r11, 1
    and  r13, r12, r9
    or   r14, r13, r8
    sltu r15, r8, r9
    mul  r16, r9, r10
    sub  r17, r16, r8
`, asm.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	text := prog.TextBytes()
	var insts []isa.Inst
	var pres []Pre
	for o := 0; o+isa.InstBytes <= len(text); o += isa.InstBytes {
		in := isa.Decode(binary.LittleEndian.Uint64(text[o:]))
		if in.Op == isa.OpInvalid {
			break
		}
		insts = append(insts, in)
		pres = append(pres, makePre(&cfg, in))
	}
	if len(insts) == 0 {
		tb.Fatal("empty dispatch mix")
	}
	return insts, pres
}

var dispatchSink int64

// BenchmarkDispatchSwitch measures the legacy per-execute opcode switch
// (execALU) over a representative ALU mix — the baseline the threaded
// dispatch table replaced.
func BenchmarkDispatchSwitch(b *testing.B) {
	insts, _ := dispatchMix(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		in := insts[i%len(insts)]
		r := execALU(in, 0x1000, int64(i), 3, 1.5, 2.5)
		sink += r.intVal
	}
	dispatchSink = sink
}

// BenchmarkDispatchTable measures the threaded-dispatch path: one indirect
// call through the predecoded record's function pointer, operands and
// latency already resolved at predecode time.
func BenchmarkDispatchTable(b *testing.B) {
	_, pres := dispatchMix(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		p := &pres[i%len(pres)]
		r := p.Exec(p, 0x1000, int64(i), 3, 1.5, 2.5)
		sink += r.intVal
	}
	dispatchSink = sink
}

// BenchmarkStepNoAlloc is the allocation-visible variant of the Tick
// benchmarks: a full simulated cycle of the OoO core on a loop with live
// memory traffic and branches. The allocs/op column must read 0 in a
// healthy build (TestStepZeroAlloc enforces the same property as a test).
func BenchmarkStepNoAlloc(b *testing.B) {
	bench := newBenchB(b, allocProg)
	for i := 0; i < 20000; i++ {
		bench.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.step()
	}
}
