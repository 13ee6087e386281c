package cpu

import (
	"math"

	"slacksim/internal/isa"
)

// Pre is a predecoded instruction: the raw decode plus everything the
// pipeline front ends would otherwise re-derive per fetch — classification
// flags, the functional-unit class, the result latency, destination
// register roles, and a direct pointer to the opcode's execute function.
// Cores copy Pre records by value out of the predecode table (or build one
// on the stack for text outside the table), so a concurrent line
// invalidation can never mutate an in-flight instruction.
type Pre struct {
	Exec   execFn // functional execute for non-memory, non-syscall ops
	Imm    int32
	Lat    int32 // result latency (execLatency folded in at predecode)
	Flags  preFlags
	Op     isa.Op
	Rd     uint8
	Rs1    uint8
	Rs2    uint8
	Class  fuClass
	IntDst int8  // architectural integer destination, -1 none
	FPDst  int8  // architectural FP destination, -1 none
	MemW   uint8 // memory access width in bytes (loads/stores)
}

// Inst reconstructs the raw decoded instruction (diagnostics only).
func (p *Pre) Inst() isa.Inst {
	return isa.Inst{Op: p.Op, Rd: p.Rd, Rs1: p.Rs1, Rs2: p.Rs2, Imm: p.Imm}
}

// preFlags are the predecode-time classification bits. The operand-capture
// bits encode the Format-driven rename plan (which operand roles read the
// integer vs FP register file), so dispatch never consults the format table.
type preFlags uint16

const (
	pfLoad preFlags = 1 << iota
	pfStore
	pfAMO
	pfBranch // conditional branch
	pfJump   // jal/jalr
	pfSyscall
	pfNeedsIQ  // passes through the issue queue
	pfNeedCkpt // takes a rename-map checkpoint (branches, jalr)
	pfReadInt1 // rs1 reads the integer file
	pfReadInt2 // rs2 reads the integer file
	pfReadFP1  // fs1 reads the FP file
	pfReadFP2  // fs2 reads the FP file

	pfMemData = pfLoad | pfStore // data-side memory access (excludes AMO)
	pfCTI     = pfBranch | pfJump
)

// fuClass names the functional unit an instruction issues to; resolved at
// predecode so the issue scan never switches on the opcode.
type fuClass uint8

const (
	fuIntALU fuClass = iota
	fuIntMul
	fuIntDiv // unpipelined integer divider
	fuFPAdd
	fuFPMul
	fuFPDiv // unpipelined FP divide/sqrt
	fuMem
)

// execFn functionally executes a predecoded instruction at pc with integer
// operands a (rs1) and b (rs2) and FP operands fa (fs1) and fb (fs2).
type execFn func(p *Pre, pc uint64, a, b int64, fa, fb float64) aluResult

// makePre folds decode, classification, latency, and the execute-function
// pointer into one record. The latency comes from execLatency (exec.go);
// the execute function from execTab, which TestExecTableMatchesSwitch pins
// to the execALU reference switch in exec_oracle_test.go.
func makePre(cfg *Config, in isa.Inst) Pre {
	p := Pre{
		Exec:   execTab[in.Op],
		Imm:    in.Imm,
		Lat:    int32(execLatency(cfg, in)),
		Op:     in.Op,
		Rd:     in.Rd,
		Rs1:    in.Rs1,
		Rs2:    in.Rs2,
		Class:  classOf(in),
		IntDst: int8(in.IntDst()),
		FPDst:  int8(in.FPDst()),
		MemW:   uint8(in.MemBytes()),
	}
	var fl preFlags
	if in.IsLoad() {
		fl |= pfLoad
	}
	if in.IsStore() {
		fl |= pfStore
	}
	if in.IsAMO() {
		fl |= pfAMO
	}
	if in.IsBranch() {
		fl |= pfBranch
	}
	if in.IsJump() {
		fl |= pfJump
	}
	if in.IsSyscall() {
		fl |= pfSyscall
	}
	if in.IsBranch() || in.Op == isa.OpJALR {
		fl |= pfNeedCkpt
	}
	if !(in.IsSyscall() || in.IsAMO() || in.Op == isa.OpNOP || in.Op == isa.OpInvalid) {
		fl |= pfNeedsIQ
	}
	// Operand-capture plan, one case per instruction format (the dispatch
	// rename previously switched on in.Op.Format()).
	switch in.Op.Format() {
	case isa.FmtR, isa.FmtB, isa.FmtStore:
		fl |= pfReadInt1 | pfReadInt2
	case isa.FmtI, isa.FmtJR, isa.FmtLoad, isa.FmtFLoad, isa.FmtFCvtIF:
		fl |= pfReadInt1
	case isa.FmtFStore:
		fl |= pfReadInt1 | pfReadFP2
	case isa.FmtFR, isa.FmtFCmp:
		fl |= pfReadFP1 | pfReadFP2
	case isa.FmtF2, isa.FmtFCvtFI:
		fl |= pfReadFP1
	}
	p.Flags = fl
	return p
}

// classOf mirrors the old fuAvailable/consumeFU opcode switch.
func classOf(in isa.Inst) fuClass {
	switch {
	case in.IsMem():
		return fuMem
	case in.Op == isa.OpMUL:
		return fuIntMul
	case in.Op == isa.OpDIV || in.Op == isa.OpREM:
		return fuIntDiv
	case in.Op == isa.OpFMUL:
		return fuFPMul
	case in.Op == isa.OpFDIV || in.Op == isa.OpFSQRT:
		return fuFPDiv
	case isFPUnit(in):
		return fuFPAdd
	default:
		return fuIntALU
	}
}

// Result constructors shared by the opcode table. Every non-CTI entry falls
// through to pc+InstBytes.

func xInt(pc uint64, v int64) aluResult {
	return aluResult{intVal: v, writesInt: true, next: pc + isa.InstBytes}
}

func xFP(pc uint64, v float64) aluResult {
	return aluResult{fpVal: v, writesFP: true, next: pc + isa.InstBytes}
}

func xBr(p *Pre, pc uint64, taken bool) aluResult {
	r := aluResult{isCTI: true, taken: taken, next: pc + isa.InstBytes}
	if taken {
		r.next = pc + uint64(int64(p.Imm))
	}
	return r
}

// execTab is the per-opcode function table: execute dispatch is one
// indirect call through the predecoded record. Division by zero follows
// the RISC-V convention (quotient all-ones, remainder equals the dividend)
// so wrong-path garbage can never fault the host. Entries for memory ops,
// AMOs, syscalls, and NOPs are a harmless no-effect function — those
// opcodes never reach Exec (memory ops take executeMem, AMOs and syscalls
// execute at the commit point) — so the table is total and dispatch needs
// no nil check.
var execTab = buildExecTab()

func buildExecTab() []execFn {
	t := make([]execFn, isa.NumOps())

	t[isa.OpADD] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xInt(pc, a+b) }
	t[isa.OpSUB] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xInt(pc, a-b) }
	t[isa.OpMUL] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xInt(pc, a*b) }
	t[isa.OpDIV] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult {
		switch {
		case b == 0:
			return xInt(pc, -1)
		case a == math.MinInt64 && b == -1:
			return xInt(pc, math.MinInt64)
		}
		return xInt(pc, a/b)
	}
	t[isa.OpREM] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult {
		switch {
		case b == 0:
			return xInt(pc, a)
		case a == math.MinInt64 && b == -1:
			return xInt(pc, 0)
		}
		return xInt(pc, a%b)
	}
	t[isa.OpAND] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xInt(pc, a&b) }
	t[isa.OpOR] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xInt(pc, a|b) }
	t[isa.OpXOR] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xInt(pc, a^b) }
	t[isa.OpSLL] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xInt(pc, a<<(uint64(b)&63)) }
	t[isa.OpSRL] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult {
		return xInt(pc, int64(uint64(a)>>(uint64(b)&63)))
	}
	t[isa.OpSRA] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xInt(pc, a>>(uint64(b)&63)) }
	t[isa.OpSLT] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xInt(pc, boolToInt(a < b)) }
	t[isa.OpSLTU] = func(_ *Pre, pc uint64, a, b int64, _, _ float64) aluResult {
		return xInt(pc, boolToInt(uint64(a) < uint64(b)))
	}

	t[isa.OpADDI] = func(p *Pre, pc uint64, a, _ int64, _, _ float64) aluResult { return xInt(pc, a+int64(p.Imm)) }
	t[isa.OpANDI] = func(p *Pre, pc uint64, a, _ int64, _, _ float64) aluResult { return xInt(pc, a&int64(p.Imm)) }
	t[isa.OpORI] = func(p *Pre, pc uint64, a, _ int64, _, _ float64) aluResult { return xInt(pc, a|int64(p.Imm)) }
	t[isa.OpXORI] = func(p *Pre, pc uint64, a, _ int64, _, _ float64) aluResult { return xInt(pc, a^int64(p.Imm)) }
	t[isa.OpSLLI] = func(p *Pre, pc uint64, a, _ int64, _, _ float64) aluResult {
		return xInt(pc, a<<(uint64(p.Imm)&63))
	}
	t[isa.OpSRLI] = func(p *Pre, pc uint64, a, _ int64, _, _ float64) aluResult {
		return xInt(pc, int64(uint64(a)>>(uint64(p.Imm)&63)))
	}
	t[isa.OpSRAI] = func(p *Pre, pc uint64, a, _ int64, _, _ float64) aluResult {
		return xInt(pc, a>>(uint64(p.Imm)&63))
	}
	t[isa.OpSLTI] = func(p *Pre, pc uint64, a, _ int64, _, _ float64) aluResult {
		return xInt(pc, boolToInt(a < int64(p.Imm)))
	}
	t[isa.OpLI] = func(p *Pre, pc uint64, _, _ int64, _, _ float64) aluResult { return xInt(pc, int64(p.Imm)) }

	t[isa.OpBEQ] = func(p *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xBr(p, pc, a == b) }
	t[isa.OpBNE] = func(p *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xBr(p, pc, a != b) }
	t[isa.OpBLT] = func(p *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xBr(p, pc, a < b) }
	t[isa.OpBGE] = func(p *Pre, pc uint64, a, b int64, _, _ float64) aluResult { return xBr(p, pc, a >= b) }
	t[isa.OpBLTU] = func(p *Pre, pc uint64, a, b int64, _, _ float64) aluResult {
		return xBr(p, pc, uint64(a) < uint64(b))
	}
	t[isa.OpBGEU] = func(p *Pre, pc uint64, a, b int64, _, _ float64) aluResult {
		return xBr(p, pc, uint64(a) >= uint64(b))
	}
	t[isa.OpJAL] = func(p *Pre, pc uint64, _, _ int64, _, _ float64) aluResult {
		return aluResult{
			intVal: int64(pc + isa.InstBytes), writesInt: true,
			isCTI: true, taken: true, next: pc + uint64(int64(p.Imm)),
		}
	}
	t[isa.OpJALR] = func(p *Pre, pc uint64, a, _ int64, _, _ float64) aluResult {
		return aluResult{
			intVal: int64(pc + isa.InstBytes), writesInt: true,
			isCTI: true, taken: true, next: uint64(a + int64(p.Imm)),
		}
	}

	t[isa.OpFADD] = func(_ *Pre, pc uint64, _, _ int64, fa, fb float64) aluResult { return xFP(pc, fa+fb) }
	t[isa.OpFSUB] = func(_ *Pre, pc uint64, _, _ int64, fa, fb float64) aluResult { return xFP(pc, fa-fb) }
	t[isa.OpFMUL] = func(_ *Pre, pc uint64, _, _ int64, fa, fb float64) aluResult { return xFP(pc, fa*fb) }
	t[isa.OpFDIV] = func(_ *Pre, pc uint64, _, _ int64, fa, fb float64) aluResult {
		return xFP(pc, fa/fb) // IEEE: Inf/NaN, never a host fault
	}
	t[isa.OpFMIN] = func(_ *Pre, pc uint64, _, _ int64, fa, fb float64) aluResult { return xFP(pc, math.Min(fa, fb)) }
	t[isa.OpFMAX] = func(_ *Pre, pc uint64, _, _ int64, fa, fb float64) aluResult { return xFP(pc, math.Max(fa, fb)) }
	t[isa.OpFSQRT] = func(_ *Pre, pc uint64, _, _ int64, fa, _ float64) aluResult { return xFP(pc, math.Sqrt(fa)) }
	t[isa.OpFABS] = func(_ *Pre, pc uint64, _, _ int64, fa, _ float64) aluResult { return xFP(pc, math.Abs(fa)) }
	t[isa.OpFNEG] = func(_ *Pre, pc uint64, _, _ int64, fa, _ float64) aluResult { return xFP(pc, -fa) }
	t[isa.OpFMOV] = func(_ *Pre, pc uint64, _, _ int64, fa, _ float64) aluResult { return xFP(pc, fa) }
	t[isa.OpFCVTDW] = func(_ *Pre, pc uint64, a, _ int64, _, _ float64) aluResult { return xFP(pc, float64(a)) }
	t[isa.OpFCVTWD] = func(_ *Pre, pc uint64, _, _ int64, fa, _ float64) aluResult {
		return xInt(pc, saturatingInt(fa))
	}
	t[isa.OpFMVXD] = func(_ *Pre, pc uint64, _, _ int64, fa, _ float64) aluResult {
		return xInt(pc, int64(math.Float64bits(fa)))
	}
	t[isa.OpFMVDX] = func(_ *Pre, pc uint64, a, _ int64, _, _ float64) aluResult {
		return xFP(pc, math.Float64frombits(uint64(a)))
	}
	t[isa.OpFEQ] = func(_ *Pre, pc uint64, _, _ int64, fa, fb float64) aluResult {
		return xInt(pc, boolToInt(fa == fb))
	}
	t[isa.OpFLT] = func(_ *Pre, pc uint64, _, _ int64, fa, fb float64) aluResult {
		return xInt(pc, boolToInt(fa < fb))
	}
	t[isa.OpFLE] = func(_ *Pre, pc uint64, _, _ int64, fa, fb float64) aluResult {
		return xInt(pc, boolToInt(fa <= fb))
	}

	noEffect := func(_ *Pre, pc uint64, _, _ int64, _, _ float64) aluResult {
		return aluResult{next: pc + isa.InstBytes}
	}
	for i := range t {
		if t[i] == nil {
			t[i] = noEffect
		}
	}
	return t
}
