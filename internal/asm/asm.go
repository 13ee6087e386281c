// Package asm implements a two-pass assembler for the SSA instruction set
// (see package isa). It supports labels, symbolic constants, the directives
// .text .data .align .space .word .dword .double .asciiz .equ .global, and a
// set of pseudo-instructions (la, j, jr, mv, ret, call, beqz, bnez, bgt,
// ble). Assembly sources are the vehicle for the simulator's workloads, the
// way SPLASH-2 binaries compiled to PISA are for SimpleScalar in the paper.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"slacksim/internal/isa"
)

// Options configures program layout.
type Options struct {
	// TextBase is the address of the first instruction. Defaults to 0x1000.
	TextBase uint64
	// DataBase is the address of the data section. If zero, it is placed at
	// the first 4 KiB boundary after the text section.
	DataBase uint64
}

// Program is the output of the assembler: an executable image plus symbols.
type Program struct {
	TextBase uint64
	Text     []isa.Inst
	DataBase uint64
	Data     []byte
	Symbols  map[string]uint64
	Entry    uint64 // address of "main" if defined, else TextBase
}

// TextBytes returns the encoded text section.
func (p *Program) TextBytes() []byte {
	out := make([]byte, len(p.Text)*isa.InstBytes)
	for i, in := range p.Text {
		binary.LittleEndian.PutUint64(out[i*isa.InstBytes:], in.Encode())
	}
	return out
}

// TextEnd returns the first address past the text section.
func (p *Program) TextEnd() uint64 { return p.TextBase + uint64(len(p.Text))*isa.InstBytes }

// DataEnd returns the first address past the data section.
func (p *Program) DataEnd() uint64 { return p.DataBase + uint64(len(p.Data)) }

// Assemble assembles src into a Program.
func Assemble(src string, opts Options) (*Program, error) {
	if opts.TextBase == 0 {
		opts.TextBase = 0x1000
	}
	a := &assembler{
		opts:    opts,
		symbols: make(map[string]uint64),
		consts:  make(map[string]int64),
	}
	if err := a.pass(src, 1); err != nil {
		return nil, err
	}
	// Fix the data base now that the text size is known.
	a.dataBase = opts.DataBase
	if a.dataBase == 0 {
		a.dataBase = (opts.TextBase + a.textSize + 0xFFF) &^ 0xFFF
	}
	// Re-resolve data labels: during pass 1 they were stored as offsets.
	for name, off := range a.dataLabels {
		a.symbols[name] = a.dataBase + off
	}
	if err := a.pass(src, 2); err != nil {
		return nil, err
	}
	p := &Program{
		TextBase: opts.TextBase,
		Text:     a.text,
		DataBase: a.dataBase,
		Data:     a.data,
		Symbols:  a.symbols,
		Entry:    opts.TextBase,
	}
	if e, ok := a.symbols["main"]; ok {
		p.Entry = e
	}
	return p, nil
}

type assembler struct {
	opts     Options
	textSize uint64
	dataBase uint64

	symbols    map[string]uint64 // fully-resolved addresses (pass 2 reads these)
	dataLabels map[string]uint64 // data-label -> section offset (pass 1)
	consts     map[string]int64  // .equ constants

	// Pass-2 outputs.
	text []isa.Inst
	data []byte
}

type section int

const (
	secText section = iota
	secData
)

func (a *assembler) pass(src string, n int) error {
	sec := secText
	var textOff, dataOff uint64
	if n == 1 {
		a.dataLabels = make(map[string]uint64)
	}
	emit := func(in isa.Inst) {
		if n == 2 {
			a.text = append(a.text, in)
		}
		textOff += isa.InstBytes
	}
	emitData := func(b []byte) {
		if n == 2 {
			a.data = append(a.data, b...)
		}
		dataOff += uint64(len(b))
	}

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		errf := func(format string, args ...any) error {
			return fmt.Errorf("asm: line %d: %s: %q", ln+1, fmt.Sprintf(format, args...), strings.TrimSpace(raw))
		}

		// Labels (possibly several on one line).
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			head := strings.TrimSpace(line[:i])
			if !isIdent(head) {
				break
			}
			if n == 1 {
				if _, dup := a.symbols[head]; dup {
					return errf("duplicate label %q", head)
				}
				if _, dup := a.dataLabels[head]; dup {
					return errf("duplicate label %q", head)
				}
				if sec == secText {
					a.symbols[head] = a.opts.TextBase + textOff
				} else {
					a.dataLabels[head] = dataOff
				}
			}
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}

		fields := splitOperands(line)
		mnem := strings.ToLower(fields[0])
		args := fields[1:]

		if strings.HasPrefix(mnem, ".") {
			if err := a.directive(mnem, args, n, &sec, emitData, &dataOff); err != nil {
				return errf("%v", err)
			}
			continue
		}
		if sec != secText {
			return errf("instruction outside .text")
		}
		pc := a.opts.TextBase + textOff
		insts, err := a.instruction(mnem, args, pc, n)
		if err != nil {
			return errf("%v", err)
		}
		for _, in := range insts {
			emit(in)
		}
	}
	if n == 1 {
		a.textSize = textOff
	}
	return nil
}

func (a *assembler) directive(mnem string, args []string, pass int, sec *section, emitData func([]byte), dataOff *uint64) error {
	switch mnem {
	case ".text":
		*sec = secText
	case ".data":
		*sec = secData
	case ".global", ".globl":
		// Accepted for compatibility; entry is the "main" label.
	case ".equ":
		if len(args) != 2 {
			return fmt.Errorf(".equ needs name, value")
		}
		if pass == 1 {
			v, err := a.evalConst(args[1])
			if err != nil {
				return err
			}
			a.consts[args[0]] = v
		}
	case ".align":
		if *sec != secData {
			return fmt.Errorf(".align only supported in .data")
		}
		if len(args) != 1 {
			return fmt.Errorf(".align needs a byte count")
		}
		v, err := a.evalConst(args[0])
		if err != nil {
			return err
		}
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf(".align argument must be a power of two")
		}
		pad := (uint64(v) - *dataOff%uint64(v)) % uint64(v)
		emitData(make([]byte, pad))
	case ".space":
		if *sec != secData {
			return fmt.Errorf(".space only supported in .data")
		}
		v, err := a.evalConst(argJoin(args))
		if err != nil {
			return err
		}
		if v < 0 {
			return fmt.Errorf(".space size must be non-negative")
		}
		emitData(make([]byte, v))
	case ".word":
		for _, s := range args {
			v, err := a.eval(s, pass)
			if err != nil {
				return err
			}
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			emitData(b[:])
		}
	case ".dword":
		for _, s := range args {
			v, err := a.eval(s, pass)
			if err != nil {
				return err
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			emitData(b[:])
		}
	case ".double":
		for _, s := range args {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("bad float %q", s)
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			emitData(b[:])
		}
	case ".asciiz":
		s, err := strconv.Unquote(argJoin(args))
		if err != nil {
			return fmt.Errorf("bad string: %v", err)
		}
		emitData(append([]byte(s), 0))
	default:
		return fmt.Errorf("unknown directive %s", mnem)
	}
	return nil
}

// instruction assembles one mnemonic (real or pseudo) into instructions.
// During pass 1 immediates referencing labels evaluate to 0; only the count
// matters.
func (a *assembler) instruction(mnem string, args []string, pc uint64, pass int) ([]isa.Inst, error) {
	one := func(in isa.Inst, err error) ([]isa.Inst, error) {
		if err != nil {
			return nil, err
		}
		return []isa.Inst{in}, nil
	}

	// Pseudo-instructions first.
	switch mnem {
	case "la", "li":
		// la rd, symbol / li rd, imm — same encoding, LI with 32-bit value.
		if len(args) != 2 {
			return nil, fmt.Errorf("%s needs rd, value", mnem)
		}
		rd, ok := isa.IntRegByName(args[0])
		if !ok {
			return nil, fmt.Errorf("bad register %q", args[0])
		}
		v, err := a.eval(args[1], pass)
		if err != nil {
			return nil, err
		}
		if v < math.MinInt32 || v > math.MaxUint32 {
			return nil, fmt.Errorf("immediate %d out of 32-bit range", v)
		}
		return []isa.Inst{{Op: isa.OpLI, Rd: uint8(rd), Imm: int32(uint32(v))}}, nil
	case "j":
		return one(a.encJ(isa.OpJAL, []string{"zero", argOr(args, 0)}, pc, pass))
	case "jr":
		if len(args) != 1 {
			return nil, fmt.Errorf("jr needs a register")
		}
		return one(a.encJR(isa.OpJALR, []string{"zero", args[0], "0"}, pass))
	case "ret":
		return one(a.encJR(isa.OpJALR, []string{"zero", "ra", "0"}, pass))
	case "call":
		return one(a.encJ(isa.OpJAL, []string{"ra", argOr(args, 0)}, pc, pass))
	case "mv":
		if len(args) != 2 {
			return nil, fmt.Errorf("mv needs rd, rs")
		}
		return one(a.encI(isa.OpADDI, []string{args[0], args[1], "0"}, pass))
	case "not":
		if len(args) != 2 {
			return nil, fmt.Errorf("not needs rd, rs")
		}
		return one(a.encI(isa.OpXORI, []string{args[0], args[1], "-1"}, pass))
	case "neg":
		if len(args) != 2 {
			return nil, fmt.Errorf("neg needs rd, rs")
		}
		return one(a.encR(isa.OpSUB, []string{args[0], "zero", args[1]}, pass))
	case "beqz":
		if len(args) != 2 {
			return nil, fmt.Errorf("beqz needs rs, label")
		}
		return one(a.encB(isa.OpBEQ, []string{args[0], "zero", args[1]}, pc, pass))
	case "bnez":
		if len(args) != 2 {
			return nil, fmt.Errorf("bnez needs rs, label")
		}
		return one(a.encB(isa.OpBNE, []string{args[0], "zero", args[1]}, pc, pass))
	case "bgt":
		if len(args) != 3 {
			return nil, fmt.Errorf("bgt needs rs1, rs2, label")
		}
		return one(a.encB(isa.OpBLT, []string{args[1], args[0], args[2]}, pc, pass))
	case "ble":
		if len(args) != 3 {
			return nil, fmt.Errorf("ble needs rs1, rs2, label")
		}
		return one(a.encB(isa.OpBGE, []string{args[1], args[0], args[2]}, pc, pass))
	}

	op, ok := isa.OpByName(mnem)
	if !ok {
		return nil, fmt.Errorf("unknown mnemonic %q", mnem)
	}
	switch op.Format() {
	case isa.FmtNone:
		return []isa.Inst{{Op: op}}, nil
	case isa.FmtR:
		return one(a.encR(op, args, pass))
	case isa.FmtI:
		return one(a.encI(op, args, pass))
	case isa.FmtLI:
		if len(args) != 2 {
			return nil, fmt.Errorf("li needs rd, imm")
		}
		return a.instruction("li", args, pc, pass)
	case isa.FmtLoad, isa.FmtFLoad:
		return one(a.encMem(op, args, pass, op.Format() == isa.FmtFLoad, true))
	case isa.FmtStore, isa.FmtFStore:
		return one(a.encMem(op, args, pass, op.Format() == isa.FmtFStore, false))
	case isa.FmtAMO:
		return one(a.encR(op, args, pass))
	case isa.FmtB:
		return one(a.encB(op, args, pc, pass))
	case isa.FmtJ:
		return one(a.encJ(op, args, pc, pass))
	case isa.FmtJR:
		return one(a.encJR(op, args, pass))
	case isa.FmtFR:
		return one(a.encFR(op, args))
	case isa.FmtF2:
		return one(a.encF2(op, args))
	case isa.FmtFCmp:
		return one(a.encFCmp(op, args))
	case isa.FmtFCvtIF:
		return one(a.encCvt(op, args, true))
	case isa.FmtFCvtFI:
		return one(a.encCvt(op, args, false))
	case isa.FmtSys:
		if len(args) != 1 {
			return nil, fmt.Errorf("syscall needs a number")
		}
		v, err := a.eval(args[0], pass)
		if err != nil {
			return nil, err
		}
		// Syscalls implicitly write their result to rv (r3).
		return []isa.Inst{{Op: op, Rd: isa.RegRV, Imm: int32(v)}}, nil
	}
	return nil, fmt.Errorf("unhandled format for %s", mnem)
}

func (a *assembler) intReg(s string) (uint8, error) {
	r, ok := isa.IntRegByName(s)
	if !ok {
		return 0, fmt.Errorf("bad integer register %q", s)
	}
	return uint8(r), nil
}

func (a *assembler) fpReg(s string) (uint8, error) {
	r, ok := isa.FPRegByName(s)
	if !ok {
		return 0, fmt.Errorf("bad fp register %q", s)
	}
	return uint8(r), nil
}

func (a *assembler) encR(op isa.Op, args []string, pass int) (isa.Inst, error) {
	if len(args) != 3 {
		return isa.Inst{}, fmt.Errorf("%s needs rd, rs1, rs2", op)
	}
	rd, err := a.intReg(args[0])
	if err != nil {
		return isa.Inst{}, err
	}
	rs1, err := a.intReg(args[1])
	if err != nil {
		return isa.Inst{}, err
	}
	rs2, err := a.intReg(args[2])
	if err != nil {
		return isa.Inst{}, err
	}
	return isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
}

func (a *assembler) encI(op isa.Op, args []string, pass int) (isa.Inst, error) {
	if len(args) != 3 {
		return isa.Inst{}, fmt.Errorf("%s needs rd, rs1, imm", op)
	}
	rd, err := a.intReg(args[0])
	if err != nil {
		return isa.Inst{}, err
	}
	rs1, err := a.intReg(args[1])
	if err != nil {
		return isa.Inst{}, err
	}
	v, err := a.eval(args[2], pass)
	if err != nil {
		return isa.Inst{}, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return isa.Inst{}, fmt.Errorf("immediate %d out of range", v)
	}
	return isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(v)}, nil
}

// encMem handles "op reg, imm(rs1)" loads and stores, integer and fp.
func (a *assembler) encMem(op isa.Op, args []string, pass int, fp, load bool) (isa.Inst, error) {
	if len(args) != 2 {
		return isa.Inst{}, fmt.Errorf("%s needs reg, offset(base)", op)
	}
	var reg uint8
	var err error
	if fp {
		reg, err = a.fpReg(args[0])
	} else {
		reg, err = a.intReg(args[0])
	}
	if err != nil {
		return isa.Inst{}, err
	}
	imm, base, err := a.memOperand(args[1], pass)
	if err != nil {
		return isa.Inst{}, err
	}
	in := isa.Inst{Op: op, Rs1: base, Imm: imm}
	if load {
		in.Rd = reg
	} else {
		in.Rs2 = reg
	}
	return in, nil
}

// memOperand parses "offset(base)".
func (a *assembler) memOperand(s string, pass int) (int32, uint8, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q (want offset(base))", s)
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		offStr = "0"
	}
	base, err := a.intReg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return 0, 0, err
	}
	v, err := a.eval(offStr, pass)
	if err != nil {
		return 0, 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, 0, fmt.Errorf("offset %d out of range", v)
	}
	return int32(v), base, nil
}

func (a *assembler) encB(op isa.Op, args []string, pc uint64, pass int) (isa.Inst, error) {
	if len(args) != 3 {
		return isa.Inst{}, fmt.Errorf("%s needs rs1, rs2, target", op)
	}
	rs1, err := a.intReg(args[0])
	if err != nil {
		return isa.Inst{}, err
	}
	rs2, err := a.intReg(args[1])
	if err != nil {
		return isa.Inst{}, err
	}
	off, err := a.branchOffset(args[2], pc, pass)
	if err != nil {
		return isa.Inst{}, err
	}
	return isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: off}, nil
}

func (a *assembler) encJ(op isa.Op, args []string, pc uint64, pass int) (isa.Inst, error) {
	if len(args) != 2 {
		return isa.Inst{}, fmt.Errorf("%s needs rd, target", op)
	}
	rd, err := a.intReg(args[0])
	if err != nil {
		return isa.Inst{}, err
	}
	off, err := a.branchOffset(args[1], pc, pass)
	if err != nil {
		return isa.Inst{}, err
	}
	return isa.Inst{Op: op, Rd: rd, Imm: off}, nil
}

func (a *assembler) encJR(op isa.Op, args []string, pass int) (isa.Inst, error) {
	if len(args) != 3 {
		return isa.Inst{}, fmt.Errorf("%s needs rd, rs1, imm", op)
	}
	return a.encI(op, args, pass)
}

func (a *assembler) encFR(op isa.Op, args []string) (isa.Inst, error) {
	if len(args) != 3 {
		return isa.Inst{}, fmt.Errorf("%s needs fd, fs1, fs2", op)
	}
	fd, err := a.fpReg(args[0])
	if err != nil {
		return isa.Inst{}, err
	}
	fs1, err := a.fpReg(args[1])
	if err != nil {
		return isa.Inst{}, err
	}
	fs2, err := a.fpReg(args[2])
	if err != nil {
		return isa.Inst{}, err
	}
	return isa.Inst{Op: op, Rd: fd, Rs1: fs1, Rs2: fs2}, nil
}

func (a *assembler) encF2(op isa.Op, args []string) (isa.Inst, error) {
	if len(args) != 2 {
		return isa.Inst{}, fmt.Errorf("%s needs fd, fs1", op)
	}
	fd, err := a.fpReg(args[0])
	if err != nil {
		return isa.Inst{}, err
	}
	fs1, err := a.fpReg(args[1])
	if err != nil {
		return isa.Inst{}, err
	}
	return isa.Inst{Op: op, Rd: fd, Rs1: fs1}, nil
}

func (a *assembler) encFCmp(op isa.Op, args []string) (isa.Inst, error) {
	if len(args) != 3 {
		return isa.Inst{}, fmt.Errorf("%s needs rd, fs1, fs2", op)
	}
	rd, err := a.intReg(args[0])
	if err != nil {
		return isa.Inst{}, err
	}
	fs1, err := a.fpReg(args[1])
	if err != nil {
		return isa.Inst{}, err
	}
	fs2, err := a.fpReg(args[2])
	if err != nil {
		return isa.Inst{}, err
	}
	return isa.Inst{Op: op, Rd: rd, Rs1: fs1, Rs2: fs2}, nil
}

func (a *assembler) encCvt(op isa.Op, args []string, toFP bool) (isa.Inst, error) {
	if len(args) != 2 {
		return isa.Inst{}, fmt.Errorf("%s needs dst, src", op)
	}
	if toFP {
		fd, err := a.fpReg(args[0])
		if err != nil {
			return isa.Inst{}, err
		}
		rs, err := a.intReg(args[1])
		if err != nil {
			return isa.Inst{}, err
		}
		return isa.Inst{Op: op, Rd: fd, Rs1: rs}, nil
	}
	rd, err := a.intReg(args[0])
	if err != nil {
		return isa.Inst{}, err
	}
	fs, err := a.fpReg(args[1])
	if err != nil {
		return isa.Inst{}, err
	}
	return isa.Inst{Op: op, Rd: rd, Rs1: fs}, nil
}

func (a *assembler) branchOffset(target string, pc uint64, pass int) (int32, error) {
	v, err := a.eval(target, pass)
	if err != nil {
		return 0, err
	}
	if pass == 1 {
		return 0, nil
	}
	off := v - int64(pc)
	if off < math.MinInt32 || off > math.MaxInt32 {
		return 0, fmt.Errorf("branch target %#x out of range from %#x", v, pc)
	}
	return int32(off), nil
}

// eval evaluates an expression with +, -, *, /, and << over numbers, .equ
// constants, and labels (usual precedence; no parentheses). During pass 1,
// unresolved labels evaluate to 0 (only instruction counts matter then).
func (a *assembler) eval(expr string, pass int) (int64, error) {
	return a.evalExpr(expr, pass == 1)
}

// evalConst evaluates an expression that may only use numbers and constants.
func (a *assembler) evalConst(expr string) (int64, error) {
	return a.evalExpr(expr, false)
}

func (a *assembler) evalExpr(expr string, lenient bool) (int64, error) {
	p := &exprParser{src: expr, a: a, lenient: lenient}
	v, err := p.additive()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.i != len(p.src) {
		return 0, fmt.Errorf("trailing junk in expression %q", expr)
	}
	return v, nil
}

type exprParser struct {
	src     string
	i       int
	a       *assembler
	lenient bool
}

func (p *exprParser) skipSpace() {
	for p.i < len(p.src) && (p.src[p.i] == ' ' || p.src[p.i] == '\t') {
		p.i++
	}
}

func (p *exprParser) additive() (int64, error) {
	v, err := p.multiplicative()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.i >= len(p.src) {
			return v, nil
		}
		switch {
		case p.src[p.i] == '+':
			p.i++
			r, err := p.multiplicative()
			if err != nil {
				return 0, err
			}
			v += r
		case p.src[p.i] == '-':
			p.i++
			r, err := p.multiplicative()
			if err != nil {
				return 0, err
			}
			v -= r
		case strings.HasPrefix(p.src[p.i:], "<<"):
			p.i += 2
			r, err := p.multiplicative()
			if err != nil {
				return 0, err
			}
			v <<= uint64(r) & 63
		default:
			return v, nil
		}
	}
}

func (p *exprParser) multiplicative() (int64, error) {
	v, err := p.atom()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.i >= len(p.src) {
			return v, nil
		}
		switch p.src[p.i] {
		case '*':
			p.i++
			r, err := p.atom()
			if err != nil {
				return 0, err
			}
			v *= r
		case '/':
			p.i++
			r, err := p.atom()
			if err != nil {
				return 0, err
			}
			if r == 0 {
				return 0, fmt.Errorf("division by zero in expression")
			}
			v /= r
		case '%':
			p.i++
			r, err := p.atom()
			if err != nil {
				return 0, err
			}
			if r == 0 {
				return 0, fmt.Errorf("modulo by zero in expression")
			}
			v %= r
		default:
			return v, nil
		}
	}
}

func (p *exprParser) atom() (int64, error) {
	p.skipSpace()
	if p.i >= len(p.src) {
		return 0, fmt.Errorf("empty expression")
	}
	if p.src[p.i] == '-' {
		p.i++
		v, err := p.atom()
		return -v, err
	}
	if p.src[p.i] == '\'' {
		// Character literal.
		j := strings.IndexByte(p.src[p.i+1:], '\'')
		if j < 0 {
			return 0, fmt.Errorf("unterminated character literal")
		}
		lit := p.src[p.i : p.i+j+2]
		p.i += j + 2
		return p.a.term(lit, p.lenient)
	}
	j := p.i
	for j < len(p.src) && isTermChar(p.src[j]) {
		j++
	}
	if j == p.i {
		return 0, fmt.Errorf("bad expression at %q", p.src[p.i:])
	}
	tok := p.src[p.i:j]
	p.i = j
	return p.a.term(tok, p.lenient)
}

func isTermChar(c byte) bool {
	switch {
	case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		return true
	case c == '_', c == '.', c == 'x', c == 'X':
		return true
	}
	return false
}

func (a *assembler) term(s string, lenient bool) (int64, error) {
	if len(s) >= 3 && s[0] == '\'' {
		r, err := strconv.Unquote(s)
		if err == nil && len(r) == 1 {
			return int64(r[0]), nil
		}
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	if v, ok := a.consts[s]; ok {
		return v, nil
	}
	if v, ok := a.symbols[s]; ok {
		return int64(v), nil
	}
	if _, ok := a.dataLabels[s]; ok {
		// Known data label, address not final yet (pass 1).
		return 0, nil
	}
	if lenient && isIdent(s) {
		return 0, nil
	}
	return 0, fmt.Errorf("undefined symbol %q", s)
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case '#', ';':
			if !inStr {
				return line[:i]
			}
		case '/':
			if !inStr && i+1 < len(line) && line[i+1] == '/' {
				return line[:i]
			}
		}
	}
	return line
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c == '.':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitOperands splits "op a, b, 8(r1)" into ["op", "a", "b", "8(r1)"].
// Strings (for .asciiz) are kept intact.
func splitOperands(line string) []string {
	var fields []string
	// First field: mnemonic, ends at first whitespace.
	i := 0
	for i < len(line) && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	fields = append(fields, line[:i])
	rest := strings.TrimSpace(line[i:])
	if rest == "" {
		return fields
	}
	var cur strings.Builder
	inStr := false
	depth := 0
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		switch {
		case c == '"':
			inStr = !inStr
			cur.WriteByte(c)
		case c == '(' && !inStr:
			depth++
			cur.WriteByte(c)
		case c == ')' && !inStr:
			depth--
			cur.WriteByte(c)
		case c == ',' && !inStr && depth == 0:
			fields = append(fields, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		fields = append(fields, s)
	}
	return fields
}

func argJoin(args []string) string { return strings.Join(args, ", ") }

func argOr(args []string, i int) string {
	if i < len(args) {
		return args[i]
	}
	return ""
}
