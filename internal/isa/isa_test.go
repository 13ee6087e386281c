package isa

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpADDI, Rd: 31, Rs1: 30, Imm: -1},
		{Op: OpLI, Rd: 5, Imm: 1 << 30},
		{Op: OpLD, Rd: 7, Rs1: 2, Imm: 8192},
		{Op: OpSD, Rs1: 2, Rs2: 9, Imm: -16},
		{Op: OpBEQ, Rs1: 4, Rs2: 5, Imm: -800},
		{Op: OpJAL, Rd: 1, Imm: 4096},
		{Op: OpFADD, Rd: 12, Rs1: 13, Rs2: 14},
		{Op: OpSYSCALL, Rd: RegRV, Imm: 12},
	}
	for _, in := range cases {
		got := Decode(in.Encode())
		if got != in {
			t.Errorf("round trip %v -> %v", in, got)
		}
	}
}

// TestEncodeDecodeQuick property-tests the codec over random register/
// immediate fields for every opcode.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Inst{
			Op:  Op(op%uint8(opMax-1)) + 1, // valid ops only
			Rd:  rd % NumIntRegs,
			Rs1: rs1 % NumIntRegs,
			Rs2: rs2 % NumIntRegs,
			Imm: imm,
		}
		return Decode(in.Encode()) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if in := Decode(0); in.Op != OpInvalid {
		t.Errorf("zero word decoded to %v", in)
	}
	// Opcode out of range.
	bad := Inst{Op: Op(200), Rd: 1}.Encode()
	if in := Decode(bad); in.Op != OpInvalid {
		t.Errorf("bad opcode decoded to %v", in)
	}
	// Register out of range.
	bad = Inst{Op: OpADD, Rd: 77}.Encode()
	if in := Decode(bad); in.Op != OpInvalid {
		t.Errorf("bad register decoded to %v", in)
	}
}

func TestClassification(t *testing.T) {
	checks := []struct {
		in                        Inst
		branch, jump, load, store bool
		amo, mem, sys             bool
	}{
		{in: Inst{Op: OpBEQ}, branch: true, mem: false},
		{in: Inst{Op: OpJAL}, jump: true},
		{in: Inst{Op: OpJALR}, jump: true},
		{in: Inst{Op: OpLD}, load: true, mem: true},
		{in: Inst{Op: OpFLD}, load: true, mem: true},
		{in: Inst{Op: OpSW}, store: true, mem: true},
		{in: Inst{Op: OpFSD}, store: true, mem: true},
		{in: Inst{Op: OpAMOADD}, amo: true, mem: true},
		{in: Inst{Op: OpCAS}, amo: true, mem: true},
		{in: Inst{Op: OpSYSCALL}, sys: true},
		{in: Inst{Op: OpADD}},
	}
	for _, c := range checks {
		if c.in.IsBranch() != c.branch || c.in.IsJump() != c.jump ||
			c.in.IsLoad() != c.load || c.in.IsStore() != c.store ||
			c.in.IsAMO() != c.amo || c.in.IsMem() != c.mem || c.in.IsSyscall() != c.sys {
			t.Errorf("%v: classification mismatch", c.in.Op)
		}
	}
}

func TestDests(t *testing.T) {
	if d := (Inst{Op: OpADD, Rd: 5}).IntDst(); d != 5 {
		t.Errorf("add rd = %d", d)
	}
	if d := (Inst{Op: OpADD, Rd: RegZero}).IntDst(); d != -1 {
		t.Errorf("write to r0 must be discarded, got dst %d", d)
	}
	if d := (Inst{Op: OpSD, Rs2: 5}).IntDst(); d != -1 {
		t.Errorf("store has int dst %d", d)
	}
	if d := (Inst{Op: OpFADD, Rd: 7}).FPDst(); d != 7 {
		t.Errorf("fadd fd = %d", d)
	}
	if d := (Inst{Op: OpFLD, Rd: 0}).FPDst(); d != 0 {
		t.Errorf("fld f0 dst = %d (f0 is a real register)", d)
	}
	if d := (Inst{Op: OpSYSCALL, Rd: RegRV}).IntDst(); d != RegRV {
		t.Errorf("syscall dst = %d, want rv", d)
	}
}

func TestMemBytes(t *testing.T) {
	for op, want := range map[Op]int{
		OpLD: 8, OpSD: 8, OpFLD: 8, OpFSD: 8, OpAMOADD: 8, OpCAS: 8,
		OpLW: 4, OpLWU: 4, OpSW: 4,
		OpLB: 1, OpLBU: 1, OpSB: 1,
		OpADD: 0,
	} {
		if got := (Inst{Op: op}).MemBytes(); got != want {
			t.Errorf("%v width = %d, want %d", op, got, want)
		}
	}
}

func TestRegisterNames(t *testing.T) {
	for name, want := range map[string]int{
		"r0": 0, "r31": 31, "zero": RegZero, "ra": RegRA, "sp": RegSP,
		"rv": RegRV, "a0": RegA0, "a3": RegA3,
	} {
		got, ok := IntRegByName(name)
		if !ok || got != want {
			t.Errorf("IntRegByName(%q) = %d,%v", name, got, ok)
		}
	}
	if _, ok := IntRegByName("r32"); ok {
		t.Error("r32 accepted")
	}
	if r, ok := FPRegByName("f31"); !ok || r != 31 {
		t.Errorf("f31 = %d,%v", r, ok)
	}
	for _, bad := range []string{"f32", "fx", "g1", "f"} {
		if _, ok := FPRegByName(bad); ok {
			t.Errorf("%q accepted as fp reg", bad)
		}
	}
}

func TestOpByNameCoversAll(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v", op.String(), got, ok)
		}
	}
}

func TestDisassembleSmoke(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		in := Inst{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 16}
		s := in.Disassemble(0x1000)
		if s == "" {
			t.Errorf("%v: empty disassembly", op)
		}
	}
}
