package core

import (
	"fmt"
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/cpu"
)

const sumProg = `
# Sum 1..100, print the result, exit with code 7.
main:
    li   r8, 0
    li   r9, 1
    li   r10, 101
loop:
    add  r8, r8, r9
    addi r9, r9, 1
    bne  r9, r10, loop
    mv   a0, r8
    syscall 12          # print_int
    li   a0, 7
    syscall 0           # exit
`

const memProg = `
# Write i*i into an array, read it back, print the sum of squares 0..9.
main:
    la   r8, arr
    li   r9, 0
    li   r10, 10
w:
    mul  r11, r9, r9
    sll  r12, r9, r13   # r13 = 0, so r12 = r9
    slli r12, r9, 3
    add  r12, r12, r8
    sd   r11, 0(r12)
    addi r9, r9, 1
    bne  r9, r10, w
    li   r9, 0
    li   r14, 0
r:
    slli r12, r9, 3
    add  r12, r12, r8
    ld   r11, 0(r12)
    add  r14, r14, r11
    addi r9, r9, 1
    bne  r9, r10, r
    mv   a0, r14
    syscall 12
    li   a0, 0
    syscall 0
.data
.align 8
arr: .space 128
`

func smallConfig(n int) Config {
	cfg := Config{
		NumCores:  n,
		CPU:       cpu.DefaultConfig(),
		Cache:     cache.DefaultConfig(n),
		MemSize:   16 << 20,
		StackSize: 64 << 10,
		MaxCycles: 5_000_000,
	}
	return cfg
}

func mustMachine(t *testing.T, src string, cfg Config) *Machine {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := NewMachine(prog, cfg)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return m
}

// runSerial drives the serial reference, failing the test on a contained
// fault.
func runSerial(t testing.TB, m *Machine) *Result {
	t.Helper()
	res, err := m.RunSerial()
	if err != nil {
		t.Fatalf("RunSerial: %v", err)
	}
	return res
}

func TestSerialSum(t *testing.T) {
	t.Run(fmt.Sprintf("model%d", ModelOoO), func(t *testing.T) {
		m := mustMachine(t, sumProg, smallConfig(1))
		res := runSerial(t, m)
		if res.Aborted {
			t.Fatalf("aborted after %d cycles", res.EndTime)
		}
		if res.Output != "5050" {
			t.Fatalf("output = %q, want 5050", res.Output)
		}
		if res.ExitCode != 7 {
			t.Fatalf("exit code = %d, want 7", res.ExitCode)
		}
		if res.EndTime <= 0 {
			t.Fatalf("end time = %d", res.EndTime)
		}
	})
}

func TestSerialMemProgram(t *testing.T) {
	m := mustMachine(t, memProg, smallConfig(1))
	res := runSerial(t, m)
	if res.Aborted {
		t.Fatal("aborted")
	}
	if res.Output != "285" {
		t.Fatalf("output = %q, want 285", res.Output)
	}
}

func TestParallelCCMatchesSerial(t *testing.T) {
	serial := mustMachine(t, sumProg, smallConfig(2))
	sres := runSerial(t, serial)

	par := mustMachine(t, sumProg, smallConfig(2))
	pres, err := par.RunParallel(SchemeCC)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Output != sres.Output {
		t.Fatalf("parallel output %q != serial %q", pres.Output, sres.Output)
	}
	if pres.EndTime != sres.EndTime {
		t.Fatalf("parallel CC end time %d != serial %d", pres.EndTime, sres.EndTime)
	}
}

func TestParallelSchemesRunSum(t *testing.T) {
	for _, s := range []Scheme{SchemeQ10, SchemeL10, SchemeS9, SchemeS9x, SchemeS100, SchemeSU} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			m := mustMachine(t, sumProg, smallConfig(2))
			res, err := m.RunParallel(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborted {
				t.Fatalf("aborted")
			}
			if res.Output != "5050" {
				t.Fatalf("output = %q", res.Output)
			}
		})
	}
}
