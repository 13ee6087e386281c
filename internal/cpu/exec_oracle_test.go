package cpu

import (
	"math"
	"math/rand"
	"testing"

	"slacksim/internal/isa"
)

// execALU is the semantic reference for execTab: one opcode switch that
// functionally executes in at pc with integer operands a (rs1) and b (rs2)
// and floating-point operands fa (fs1) and fb (fs2). Division by zero
// follows the RISC-V convention (quotient all-ones, remainder equals the
// dividend) so wrong-path garbage can never fault the host.
func execALU(in isa.Inst, pc uint64, a, b int64, fa, fb float64) aluResult {
	r := aluResult{next: pc + isa.InstBytes}
	setInt := func(v int64) { r.intVal, r.writesInt = v, true }
	setFP := func(v float64) { r.fpVal, r.writesFP = v, true }
	branch := func(taken bool) {
		r.isCTI = true
		r.taken = taken
		if taken {
			r.next = pc + uint64(int64(in.Imm))
		}
	}

	switch in.Op {
	case isa.OpADD:
		setInt(a + b)
	case isa.OpSUB:
		setInt(a - b)
	case isa.OpMUL:
		setInt(a * b)
	case isa.OpDIV:
		if b == 0 {
			setInt(-1)
		} else if a == math.MinInt64 && b == -1 {
			setInt(math.MinInt64)
		} else {
			setInt(a / b)
		}
	case isa.OpREM:
		if b == 0 {
			setInt(a)
		} else if a == math.MinInt64 && b == -1 {
			setInt(0)
		} else {
			setInt(a % b)
		}
	case isa.OpAND:
		setInt(a & b)
	case isa.OpOR:
		setInt(a | b)
	case isa.OpXOR:
		setInt(a ^ b)
	case isa.OpSLL:
		setInt(a << (uint64(b) & 63))
	case isa.OpSRL:
		setInt(int64(uint64(a) >> (uint64(b) & 63)))
	case isa.OpSRA:
		setInt(a >> (uint64(b) & 63))
	case isa.OpSLT:
		setInt(boolToInt(a < b))
	case isa.OpSLTU:
		setInt(boolToInt(uint64(a) < uint64(b)))

	case isa.OpADDI:
		setInt(a + int64(in.Imm))
	case isa.OpANDI:
		setInt(a & int64(in.Imm))
	case isa.OpORI:
		setInt(a | int64(in.Imm))
	case isa.OpXORI:
		setInt(a ^ int64(in.Imm))
	case isa.OpSLLI:
		setInt(a << (uint64(in.Imm) & 63))
	case isa.OpSRLI:
		setInt(int64(uint64(a) >> (uint64(in.Imm) & 63)))
	case isa.OpSRAI:
		setInt(a >> (uint64(in.Imm) & 63))
	case isa.OpSLTI:
		setInt(boolToInt(a < int64(in.Imm)))
	case isa.OpLI:
		setInt(int64(in.Imm))

	case isa.OpBEQ:
		branch(a == b)
	case isa.OpBNE:
		branch(a != b)
	case isa.OpBLT:
		branch(a < b)
	case isa.OpBGE:
		branch(a >= b)
	case isa.OpBLTU:
		branch(uint64(a) < uint64(b))
	case isa.OpBGEU:
		branch(uint64(a) >= uint64(b))
	case isa.OpJAL:
		r.isCTI, r.taken = true, true
		r.next = pc + uint64(int64(in.Imm))
		setInt(int64(pc + isa.InstBytes))
	case isa.OpJALR:
		r.isCTI, r.taken = true, true
		r.next = uint64(a + int64(in.Imm))
		setInt(int64(pc + isa.InstBytes))

	case isa.OpFADD:
		setFP(fa + fb)
	case isa.OpFSUB:
		setFP(fa - fb)
	case isa.OpFMUL:
		setFP(fa * fb)
	case isa.OpFDIV:
		setFP(fa / fb) // IEEE: Inf/NaN, never a host fault
	case isa.OpFMIN:
		setFP(math.Min(fa, fb))
	case isa.OpFMAX:
		setFP(math.Max(fa, fb))
	case isa.OpFSQRT:
		setFP(math.Sqrt(fa))
	case isa.OpFABS:
		setFP(math.Abs(fa))
	case isa.OpFNEG:
		setFP(-fa)
	case isa.OpFMOV:
		setFP(fa)
	case isa.OpFCVTDW:
		setFP(float64(a))
	case isa.OpFCVTWD:
		setInt(saturatingInt(fa))
	case isa.OpFMVXD:
		setInt(int64(math.Float64bits(fa)))
	case isa.OpFMVDX:
		setFP(math.Float64frombits(uint64(a)))
	case isa.OpFEQ:
		setInt(boolToInt(fa == fb))
	case isa.OpFLT:
		setInt(boolToInt(fa < fb))
	case isa.OpFLE:
		setInt(boolToInt(fa <= fb))

	case isa.OpNOP, isa.OpInvalid:
		// no effect
	}
	return r
}

// sameALUResult compares every field, bit for bit, except that any NaN
// equals any NaN.
func sameALUResult(x, y aluResult) bool {
	fpSame := math.Float64bits(x.fpVal) == math.Float64bits(y.fpVal) ||
		math.IsNaN(x.fpVal) && math.IsNaN(y.fpVal)
	x.fpVal, y.fpVal = 0, 0
	return fpSame && x == y
}

// TestExecTableMatchesSwitch pins the live dispatch table to its reference:
// for every opcode, the predecoded record's Exec must return exactly what
// execALU returns, on edge operands and on seeded random ones.
func TestExecTableMatchesSwitch(t *testing.T) {
	ints := []int64{0, 1, -1, 2, -7, 63, 64, 65, 127, math.MinInt64, math.MaxInt64}
	fps := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, -0.75, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), 9.3e18, math.SmallestNonzeroFloat64}
	imms := []int32{0, 1, -1, 8, -64, 63, 64, 65, math.MinInt32, math.MaxInt32}
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	for op := isa.Op(1); int(op) < isa.NumOps(); op++ {
		check := func(imm int32, pc uint64, a, b int64, fa, fb float64) {
			in := isa.Inst{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: imm}
			p := makePre(&cfg, in)
			got, want := p.Exec(&p, pc, a, b, fa, fb), execALU(in, pc, a, b, fa, fb)
			if !sameALUResult(got, want) {
				t.Fatalf("%v imm=%d pc=%#x a=%d b=%d fa=%g fb=%g:\n table  %+v\n switch %+v",
					op, imm, pc, a, b, fa, fb, got, want)
			}
		}
		for i, a := range ints {
			for j, b := range ints {
				for _, imm := range imms {
					check(imm, 0x1000, a, b, fps[i%len(fps)], fps[j%len(fps)])
				}
			}
		}
		for i, fa := range fps {
			for j, fb := range fps {
				check(imms[i%len(imms)], 0x1000, ints[j%len(ints)], ints[i%len(ints)], fa, fb)
			}
		}
		for k := 0; k < 400; k++ {
			check(int32(rng.Uint32()), rng.Uint64()&^7, int64(rng.Uint64()), int64(rng.Uint64()),
				rng.NormFloat64()*1e6, math.Float64frombits(rng.Uint64()))
		}
	}
}
