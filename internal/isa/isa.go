// Package isa defines the SSA (SlackSim Architecture) instruction set: a
// small 64-bit RISC ISA used as the target instruction set of the simulator,
// playing the role SimpleScalar's PISA plays in the paper.
//
// Instructions are a fixed 8 bytes:
//
//	byte 0    opcode
//	byte 1    rd  (destination register index, int or fp by opcode)
//	byte 2    rs1 (source register 1)
//	byte 3    rs2 (source register 2)
//	bytes 4-7 imm (signed 32-bit little-endian immediate)
//
// There are 32 integer registers (r0 hardwired to zero) holding 64-bit
// values and 32 floating-point registers holding float64 values.
package isa

import (
	"encoding/binary"
	"fmt"
)

// InstBytes is the fixed encoded size of every instruction.
const InstBytes = 8

// NumIntRegs and NumFPRegs are the architectural register file sizes.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// ABI register assignments.
const (
	RegZero = 0 // always reads as zero
	RegRA   = 1 // return address (link register)
	RegSP   = 2 // stack pointer
	RegRV   = 3 // return value / syscall result
	RegA0   = 4 // first argument / syscall argument 0
	RegA1   = 5
	RegA2   = 6
	RegA3   = 7
)

// Op identifies an operation.
type Op uint8

// Opcodes. The zero value is OpInvalid so that uninitialised memory does not
// decode to a valid instruction.
const (
	OpInvalid Op = iota

	// Integer register-register arithmetic.
	OpADD
	OpSUB
	OpMUL
	OpDIV
	OpREM
	OpAND
	OpOR
	OpXOR
	OpSLL
	OpSRL
	OpSRA
	OpSLT
	OpSLTU

	// Integer register-immediate arithmetic.
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLLI
	OpSRLI
	OpSRAI
	OpSLTI
	OpLI // rd = imm (sign-extended)

	// Memory.
	OpLD  // rd = mem64[rs1+imm]
	OpLW  // rd = sign-extend(mem32[rs1+imm])
	OpLWU // rd = zero-extend(mem32[rs1+imm])
	OpLB  // rd = sign-extend(mem8[rs1+imm])
	OpLBU // rd = zero-extend(mem8[rs1+imm])
	OpSD  // mem64[rs1+imm] = rs2
	OpSW  // mem32[rs1+imm] = rs2
	OpSB  // mem8[rs1+imm] = rs2
	OpFLD // fd = mem64[rs1+imm] as float64
	OpFSD // mem64[rs1+imm] = fs2 bits

	// Atomics (read-modify-write on a 64-bit word).
	OpAMOADD  // rd = mem64[rs1]; mem64[rs1] += rs2
	OpAMOSWAP // rd = mem64[rs1]; mem64[rs1] = rs2
	OpCAS     // t = mem64[rs1]; if t == rs2 { mem64[rs1] = rd }; rd = t

	// Control flow. Branch/jump immediates are byte offsets from the
	// address of the branch instruction itself.
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpJAL  // rd = pc+8; pc += imm
	OpJALR // rd = pc+8; pc = (rs1 + imm)

	// Floating point.
	OpFADD
	OpFSUB
	OpFMUL
	OpFDIV
	OpFMIN
	OpFMAX
	OpFSQRT  // fd = sqrt(fs1)
	OpFABS   // fd = |fs1|
	OpFNEG   // fd = -fs1
	OpFMOV   // fd = fs1
	OpFCVTDW // fd = float64(rs1)   (int -> double)
	OpFCVTWD // rd = int64(fs1)     (double -> int, truncating)
	OpFMVXD  // rd = raw bits of fs1
	OpFMVDX  // fd = float64 from raw bits of rs1
	OpFEQ    // rd = fs1 == fs2
	OpFLT    // rd = fs1 < fs2
	OpFLE    // rd = fs1 <= fs2

	// System.
	OpSYSCALL // system call, number in imm; args in a0..a3, result in rv
	OpNOP

	opMax // sentinel
)

// Fmt describes an instruction's assembly/operand format.
type Fmt uint8

const (
	FmtNone   Fmt = iota // op
	FmtR                 // op rd, rs1, rs2         (int x int -> int)
	FmtI                 // op rd, rs1, imm
	FmtLI                // op rd, imm
	FmtLoad              // op rd, imm(rs1)         (int load)
	FmtStore             // op rs2, imm(rs1)        (int store)
	FmtFLoad             // op fd, imm(rs1)         (fp load)
	FmtFStore            // op fs2, imm(rs1)        (fp store)
	FmtAMO               // op rd, rs1, rs2         (atomic; rd also source for CAS)
	FmtB                 // op rs1, rs2, imm        (branch)
	FmtJ                 // op rd, imm              (jal)
	FmtJR                // op rd, rs1, imm         (jalr)
	FmtFR                // op fd, fs1, fs2
	FmtF2                // op fd, fs1
	FmtFCmp              // op rd, fs1, fs2         (fp compare -> int)
	FmtFCvtIF            // op fd, rs1              (int -> fp)
	FmtFCvtFI            // op rd, fs1              (fp -> int)
	FmtSys               // op imm
)

type opInfo struct {
	name string
	fmt  Fmt
}

var opTable = [opMax]opInfo{
	OpInvalid: {"invalid", FmtNone},

	OpADD:  {"add", FmtR},
	OpSUB:  {"sub", FmtR},
	OpMUL:  {"mul", FmtR},
	OpDIV:  {"div", FmtR},
	OpREM:  {"rem", FmtR},
	OpAND:  {"and", FmtR},
	OpOR:   {"or", FmtR},
	OpXOR:  {"xor", FmtR},
	OpSLL:  {"sll", FmtR},
	OpSRL:  {"srl", FmtR},
	OpSRA:  {"sra", FmtR},
	OpSLT:  {"slt", FmtR},
	OpSLTU: {"sltu", FmtR},

	OpADDI: {"addi", FmtI},
	OpANDI: {"andi", FmtI},
	OpORI:  {"ori", FmtI},
	OpXORI: {"xori", FmtI},
	OpSLLI: {"slli", FmtI},
	OpSRLI: {"srli", FmtI},
	OpSRAI: {"srai", FmtI},
	OpSLTI: {"slti", FmtI},
	OpLI:   {"li", FmtLI},

	OpLD:  {"ld", FmtLoad},
	OpLW:  {"lw", FmtLoad},
	OpLWU: {"lwu", FmtLoad},
	OpLB:  {"lb", FmtLoad},
	OpLBU: {"lbu", FmtLoad},
	OpSD:  {"sd", FmtStore},
	OpSW:  {"sw", FmtStore},
	OpSB:  {"sb", FmtStore},
	OpFLD: {"fld", FmtFLoad},
	OpFSD: {"fsd", FmtFStore},

	OpAMOADD:  {"amoadd", FmtAMO},
	OpAMOSWAP: {"amoswap", FmtAMO},
	OpCAS:     {"cas", FmtAMO},

	OpBEQ:  {"beq", FmtB},
	OpBNE:  {"bne", FmtB},
	OpBLT:  {"blt", FmtB},
	OpBGE:  {"bge", FmtB},
	OpBLTU: {"bltu", FmtB},
	OpBGEU: {"bgeu", FmtB},
	OpJAL:  {"jal", FmtJ},
	OpJALR: {"jalr", FmtJR},

	OpFADD:   {"fadd", FmtFR},
	OpFSUB:   {"fsub", FmtFR},
	OpFMUL:   {"fmul", FmtFR},
	OpFDIV:   {"fdiv", FmtFR},
	OpFMIN:   {"fmin", FmtFR},
	OpFMAX:   {"fmax", FmtFR},
	OpFSQRT:  {"fsqrt", FmtF2},
	OpFABS:   {"fabs", FmtF2},
	OpFNEG:   {"fneg", FmtF2},
	OpFMOV:   {"fmov", FmtF2},
	OpFCVTDW: {"fcvt.d.w", FmtFCvtIF},
	OpFCVTWD: {"fcvt.w.d", FmtFCvtFI},
	OpFMVXD:  {"fmv.x.d", FmtFCvtFI},
	OpFMVDX:  {"fmv.d.x", FmtFCvtIF},
	OpFEQ:    {"feq", FmtFCmp},
	OpFLT:    {"flt", FmtFCmp},
	OpFLE:    {"fle", FmtFCmp},

	OpSYSCALL: {"syscall", FmtSys},
	OpNOP:     {"nop", FmtNone},
}

// String returns the mnemonic for op.
func (op Op) String() string {
	if op >= opMax {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// Format returns the operand format of op.
func (op Op) Format() Fmt {
	if op >= opMax {
		return FmtNone
	}
	return opTable[op].fmt
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op > OpInvalid && op < opMax }

// NumOps returns the number of defined opcodes plus one (the exclusive
// upper bound for iterating `for op := Op(1); op < Op(NumOps()); op++`).
func NumOps() int { return int(opMax) }

// OpByName returns the opcode with the given mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, int(opMax))
	for op := Op(1); op < opMax; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// Inst is a decoded instruction.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// Encode packs the instruction into its 8-byte representation.
func (in Inst) Encode() uint64 {
	var b [InstBytes]byte
	b[0] = byte(in.Op)
	b[1] = in.Rd
	b[2] = in.Rs1
	b[3] = in.Rs2
	binary.LittleEndian.PutUint32(b[4:], uint32(in.Imm))
	return binary.LittleEndian.Uint64(b[:])
}

// Decode unpacks an instruction from its 8-byte representation.
func Decode(word uint64) Inst {
	var b [InstBytes]byte
	binary.LittleEndian.PutUint64(b[:], word)
	in := Inst{
		Op:  Op(b[0]),
		Rd:  b[1],
		Rs1: b[2],
		Rs2: b[3],
		Imm: int32(binary.LittleEndian.Uint32(b[4:])),
	}
	if !in.Op.Valid() || in.Rd >= NumIntRegs || in.Rs1 >= NumIntRegs || in.Rs2 >= NumIntRegs {
		return Inst{Op: OpInvalid}
	}
	return in
}

// Classification helpers used by the timing models.

// IsBranch reports whether the instruction is a conditional branch.
func (in Inst) IsBranch() bool {
	switch in.Op {
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return true
	}
	return false
}

// IsJump reports whether the instruction is an unconditional jump.
func (in Inst) IsJump() bool { return in.Op == OpJAL || in.Op == OpJALR }

// IsLoad reports whether the instruction reads data memory.
func (in Inst) IsLoad() bool {
	switch in.Op {
	case OpLD, OpLW, OpLWU, OpLB, OpLBU, OpFLD:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory.
func (in Inst) IsStore() bool {
	switch in.Op {
	case OpSD, OpSW, OpSB, OpFSD:
		return true
	}
	return false
}

// IsAMO reports whether the instruction is an atomic read-modify-write.
func (in Inst) IsAMO() bool {
	switch in.Op {
	case OpAMOADD, OpAMOSWAP, OpCAS:
		return true
	}
	return false
}

// IsMem reports whether the instruction accesses data memory at all.
func (in Inst) IsMem() bool { return in.IsLoad() || in.IsStore() || in.IsAMO() }

// IsSyscall reports whether the instruction is a system call.
func (in Inst) IsSyscall() bool { return in.Op == OpSYSCALL }

// IntDst returns the integer destination register, or -1 if none.
func (in Inst) IntDst() int {
	switch in.Op.Format() {
	case FmtR, FmtI, FmtLI, FmtLoad, FmtAMO, FmtJ, FmtJR, FmtFCmp, FmtFCvtFI, FmtSys:
		if in.Rd != RegZero {
			return int(in.Rd)
		}
	}
	return -1
}

// FPDst returns the floating-point destination register, or -1 if none.
func (in Inst) FPDst() int {
	switch in.Op.Format() {
	case FmtFLoad, FmtFR, FmtF2, FmtFCvtIF:
		return int(in.Rd)
	}
	return -1
}

// MemBytes returns the access width in bytes of a memory instruction (0 for
// non-memory instructions).
func (in Inst) MemBytes() int {
	switch in.Op {
	case OpLD, OpSD, OpFLD, OpFSD, OpAMOADD, OpAMOSWAP, OpCAS:
		return 8
	case OpLW, OpLWU, OpSW:
		return 4
	case OpLB, OpLBU, OpSB:
		return 1
	}
	return 0
}

// IntRegName returns the assembly name of integer register r.
func IntRegName(r int) string {
	if r < 0 || r >= NumIntRegs {
		return fmt.Sprintf("r?%d", r)
	}
	return intRegNames[r]
}

// FPRegName returns the assembly name of floating-point register r.
func FPRegName(r int) string {
	if r < 0 || r >= NumFPRegs {
		return fmt.Sprintf("f?%d", r)
	}
	return fmt.Sprintf("f%d", r)
}

var intRegNames = func() [NumIntRegs]string {
	var names [NumIntRegs]string
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	return names
}()

// IntRegByName resolves an integer register name ("r7" or an ABI alias).
func IntRegByName(name string) (int, bool) {
	r, ok := intRegAliases[name]
	return r, ok
}

// FPRegByName resolves a floating-point register name ("f12").
func FPRegByName(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'f' {
		return 0, false
	}
	n := 0
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if n >= NumFPRegs {
		return 0, false
	}
	return n, true
}

var intRegAliases = func() map[string]int {
	m := make(map[string]int, NumIntRegs+8)
	for i := 0; i < NumIntRegs; i++ {
		m[fmt.Sprintf("r%d", i)] = i
	}
	m["zero"] = RegZero
	m["ra"] = RegRA
	m["sp"] = RegSP
	m["rv"] = RegRV
	m["a0"] = RegA0
	m["a1"] = RegA1
	m["a2"] = RegA2
	m["a3"] = RegA3
	return m
}()

// Disassemble renders in as assembly text. pc is the address of the
// instruction, used to render branch targets as absolute addresses.
func (in Inst) Disassemble(pc uint64) string {
	switch in.Op.Format() {
	case FmtNone:
		return in.Op.String()
	case FmtR:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, IntRegName(int(in.Rd)), IntRegName(int(in.Rs1)), IntRegName(int(in.Rs2)))
	case FmtI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, IntRegName(int(in.Rd)), IntRegName(int(in.Rs1)), in.Imm)
	case FmtLI:
		return fmt.Sprintf("%s %s, %d", in.Op, IntRegName(int(in.Rd)), in.Imm)
	case FmtLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, IntRegName(int(in.Rd)), in.Imm, IntRegName(int(in.Rs1)))
	case FmtStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, IntRegName(int(in.Rs2)), in.Imm, IntRegName(int(in.Rs1)))
	case FmtFLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, FPRegName(int(in.Rd)), in.Imm, IntRegName(int(in.Rs1)))
	case FmtFStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, FPRegName(int(in.Rs2)), in.Imm, IntRegName(int(in.Rs1)))
	case FmtAMO:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, IntRegName(int(in.Rd)), IntRegName(int(in.Rs1)), IntRegName(int(in.Rs2)))
	case FmtB:
		return fmt.Sprintf("%s %s, %s, 0x%x", in.Op, IntRegName(int(in.Rs1)), IntRegName(int(in.Rs2)), pc+uint64(int64(in.Imm)))
	case FmtJ:
		return fmt.Sprintf("%s %s, 0x%x", in.Op, IntRegName(int(in.Rd)), pc+uint64(int64(in.Imm)))
	case FmtJR:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, IntRegName(int(in.Rd)), IntRegName(int(in.Rs1)), in.Imm)
	case FmtFR:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, FPRegName(int(in.Rd)), FPRegName(int(in.Rs1)), FPRegName(int(in.Rs2)))
	case FmtF2:
		return fmt.Sprintf("%s %s, %s", in.Op, FPRegName(int(in.Rd)), FPRegName(int(in.Rs1)))
	case FmtFCmp:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, IntRegName(int(in.Rd)), FPRegName(int(in.Rs1)), FPRegName(int(in.Rs2)))
	case FmtFCvtIF:
		return fmt.Sprintf("%s %s, %s", in.Op, FPRegName(int(in.Rd)), IntRegName(int(in.Rs1)))
	case FmtFCvtFI:
		return fmt.Sprintf("%s %s, %s", in.Op, IntRegName(int(in.Rd)), FPRegName(int(in.Rs1)))
	case FmtSys:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	}
	return in.Op.String()
}
