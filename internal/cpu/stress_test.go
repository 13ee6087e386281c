package cpu

import "testing"

// Dense data-dependent branches exhaust the rename-map checkpoints and
// force dispatch stalls; the result must still be exact.
const branchStormProg = `
main:
    li   r8, 0            # i
    li   r9, 512
    li   r10, 0           # acc
loop:
    andi r11, r8, 1
    beqz r11, even
    addi r10, r10, 3
    j    next
even:
    andi r12, r8, 2
    beqz r12, next
    addi r10, r10, 5
next:
    addi r8, r8, 1
    blt  r8, r9, loop
    la   r13, out
    sd   r10, 0(r13)
    li   a0, 0
    syscall 0
.data
.align 8
out: .dword 0
`

func TestBranchStorm(t *testing.T) {
	// Reference: odd i -> +3 (256 of them); even i with bit1 -> +5 (128).
	want := uint64(256*3 + 128*5)
	b := newBench(t, branchStormProg)
	b.run(500000)
	if v := b.word(t, 0x2000); v != want {
		t.Errorf("acc = %d, want %d", v, want)
	}
}

// Deep call chains exercise the return-address stack, including overflow
// (depth 32 > RAS size 16) and recovery.
const callDepthProg = `
main:
    li   a0, 32
    call fib_like
    la   r8, out
    sd   rv, 0(r8)
    li   a0, 0
    syscall 0

# fib_like(n): returns n + fib_like(n-1), base 0 — a deep linear recursion.
fib_like:
    beqz a0, base
    addi sp, sp, -16
    sd   ra, 0(sp)
    sd   a0, 8(sp)
    addi a0, a0, -1
    call fib_like
    ld   a0, 8(sp)
    ld   ra, 0(sp)
    addi sp, sp, 16
    add  rv, rv, a0
    ret
base:
    li   rv, 0
    ret
.data
.align 8
out: .dword 0
`

func TestDeepRecursionRAS(t *testing.T) {
	b := newBench(t, callDepthProg)
	b.run(500000)
	if v := b.word(t, 0x2000); v != 32*33/2 {
		t.Errorf("sum = %d, want %d", v, 32*33/2)
	}
}

// A burst of independent loads and stores pressures the LQ/SQ and MSHRs
// (64 distinct lines > 8 MSHRs) without any reuse.
const memBurstProg = `
main:
    la   r8, arr
    li   r9, 0
    li   r10, 64
w:
    slli r11, r9, 6       # stride 64: one line each
    add  r12, r8, r11
    sd   r9, 0(r12)
    addi r9, r9, 1
    blt  r9, r10, w
    li   r9, 0
    li   r13, 0
r:
    slli r11, r9, 6
    add  r12, r8, r11
    ld   r14, 0(r12)
    add  r13, r13, r14
    addi r9, r9, 1
    blt  r9, r10, r
    la   r15, out
    sd   r13, 0(r15)
    li   a0, 0
    syscall 0
.data
.align 64
arr: .space 64*64
out: .dword 0
`

func TestMemBurstMSHRPressure(t *testing.T) {
	b := newBench(t, memBurstProg)
	b.run(500000)
	if v := b.word(t, 0x2000+64*64); v != 64*63/2 {
		t.Fatalf("sum = %d, want %d", v, 64*63/2)
	}
	if b.fills < 64 {
		t.Fatalf("only %d fills for 64 distinct lines", b.fills)
	}
}

// Mixed-width accesses to one word: sub-word stores and sign/zero-extending
// loads must compose correctly through the store queue and memory.
const widthProg = `
main:
    la   r8, slot
    li   r9, -1
    sd   r9, 0(r8)
    li   r10, 0x7F
    sb   r10, 0(r8)          # low byte 0x7F
    lb   r11, 0(r8)          # 0x7F sign-extended = 127
    lbu  r12, 7(r8)          # 0xFF
    lw   r13, 0(r8)          # 0xFFFFFF7F sign-extended
    lwu  r14, 0(r8)          # 0xFFFFFF7F zero-extended
    la   r15, out
    sd   r11, 0(r15)
    sd   r12, 8(r15)
    sd   r13, 16(r15)
    sd   r14, 24(r15)
    li   a0, 0
    syscall 0
.data
.align 8
slot: .dword 0
out:  .dword 0, 0, 0, 0
`

func TestSubWordAccess(t *testing.T) {
	b := newBench(t, widthProg)
	b.run(500000)
	if v := b.word(t, 0x2008); v != 127 {
		t.Errorf("lb = %d", int64(v))
	}
	if v := b.word(t, 0x2010); v != 0xFF {
		t.Errorf("lbu = %#x", v)
	}
	if v := b.word(t, 0x2018); int64(v) != int64(int32(-129)) { // 0xFFFFFF7F
		t.Errorf("lw = %#x", v)
	}
	if v := b.word(t, 0x2020); v != 0xFFFFFF7F {
		t.Errorf("lwu = %#x", v)
	}
}

// TestDeterministicReplay: the bench harness itself is deterministic — two
// runs of the same program commit the same instruction count in the same
// number of cycles.
func TestDeterministicReplay(t *testing.T) {
	type outcome struct{ cycles, committed int64 }
	run := func() outcome {
		b := newBench(t, branchStormProg)
		b.run(500000)
		st := b.core.Stats()
		return outcome{b.now, st.Committed}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay mismatch: %+v vs %+v", a, b)
	}
}
