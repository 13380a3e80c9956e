// Package isa defines the instruction set architecture executed by both the
// architectural emulator (internal/emu) and the cycle-level out-of-order core
// (internal/uarch).
//
// The ISA is a small RISC-like register machine chosen to expose exactly the
// microarchitectural levers the speculative interference attacks of Behnia et
// al. (ASPLOS 2021) require:
//
//   - SQRT/DIV are long-latency, non-pipelined, single-port operations (the
//     analog of VSQRTPD/VDIVPD used by the paper's GDNPEU gadget),
//   - LOAD/STORE traverse a cache hierarchy with MSHRs (GDMSHR),
//   - ADD chains occupy reservation stations (GIRS),
//   - CLFLUSH and RDCYCLE give the attacker the receiver primitives the
//     paper's PoCs use (Flush+Reload, timed probes),
//   - conditional branches are predicted by a mistrainable predictor.
//
// An opcode is defined by its row in one table (opSpecs): its mnemonic,
// its execution class and its operands in assembler order. The decode
// predicates (OpClass, HasDst, Uses, IsBranch, IsCondBranch), the printer
// (Inst.String) and the parser (ParseInst) all read that row; what an
// opcode computes is stated by the emulator (internal/emu) and the
// out-of-order core (internal/uarch).
package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Reg names an architectural register. The machine has NumRegs general
// purpose registers R0..R31. R0 is an ordinary register (not hardwired).
type Reg uint8

// NumRegs is the number of architectural registers.
const NumRegs = 32

// Convenience register names.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// String implements fmt.Stringer.
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Valid reports whether r names an existing register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	// Nop does nothing.
	Nop Op = iota
	// Halt stops the machine.
	Halt

	// MovI: Dst = Imm.
	MovI
	// Mov: Dst = Src1.
	Mov
	// Add: Dst = Src1 + Src2.
	Add
	// AddI: Dst = Src1 + Imm.
	AddI
	// Sub: Dst = Src1 - Src2.
	Sub
	// And: Dst = Src1 & Src2.
	And
	// Or: Dst = Src1 | Src2.
	Or
	// Xor: Dst = Src1 ^ Src2.
	Xor
	// ShlI: Dst = Src1 << uint(Imm).
	ShlI
	// ShrI: Dst = int64(uint64(Src1) >> uint(Imm)).
	ShrI

	// Mul: Dst = Src1 * Src2. Pipelined, medium latency.
	Mul
	// MulI: Dst = Src1 * Imm. Pipelined, medium latency.
	MulI
	// Div: Dst = Src1 / Src2 (0 if Src2 == 0). Non-pipelined, long latency.
	Div
	// Sqrt: Dst = isqrt(|Src1|). Non-pipelined, long latency. This is the
	// VSQRTPD analog used by interference gadgets and targets.
	Sqrt

	// Load: Dst = Mem[Src1 + Imm].
	Load
	// Store: Mem[Src1 + Imm] = Src2.
	Store
	// Flush: evict the cache line containing address Src1 + Imm from the
	// entire hierarchy (clflush analog).
	Flush

	// RdCycle: Dst = current cycle count (emulator: instruction count). The
	// attacker's timer (rdtscp / clock-thread analog).
	RdCycle

	// Beq: if Src1 == Src2 branch to Target.
	Beq
	// Bne: if Src1 != Src2 branch to Target.
	Bne
	// Blt: if Src1 < Src2 branch to Target (signed).
	Blt
	// Bge: if Src1 >= Src2 branch to Target (signed).
	Bge
	// Jmp: unconditional branch to Target. Not predicted; never mispredicts.
	Jmp

	// Fence: speculation barrier. Younger instructions do not issue until
	// the fence retires. (lfence analog; also the §5.2 defense primitive.)
	Fence

	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if name := opSpecs[o].name; name != "" {
		return name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// Class is the execution resource class of an instruction. Each class maps
// to one or more execution ports in the out-of-order core.
type Class uint8

// Execution classes.
const (
	// ClassNone: instructions that occupy no execution unit (Nop, Fence,
	// Halt complete immediately at issue).
	ClassNone Class = iota
	// ClassALU: simple integer ops. Pipelined, short latency.
	ClassALU
	// ClassMul: multiplies. Pipelined, medium latency.
	ClassMul
	// ClassSqrt: Sqrt and Div. NON-pipelined, long latency, single port
	// (the paper's port-0 VSQRTPD analog).
	ClassSqrt
	// ClassLoad: loads and flushes. Handled by the load/store unit.
	ClassLoad
	// ClassStore: stores (address generation at issue; data written at
	// retire).
	ClassStore
	// ClassBranch: conditional branches and jumps.
	ClassBranch

	// NumClasses is the number of execution classes.
	NumClasses
)

var classNames = [NumClasses]string{
	ClassNone:   "none",
	ClassALU:    "alu",
	ClassMul:    "mul",
	ClassSqrt:   "sqrt",
	ClassLoad:   "load",
	ClassStore:  "store",
	ClassBranch: "branch",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// OpClass returns the execution class of an opcode.
func OpClass(o Op) Class { return opSpecs[o].class }

// operand is one assembler operand of an instruction: which Inst fields
// it carries and how they are written.
type operand uint8

const (
	argDst    operand = iota // destination register: Dst
	argSrc1                  // source register: Src1
	argSrc2                  // source register: Src2
	argImm                   // immediate: Imm
	argMem                   // memory operand Imm(Src1)
	argTarget                // branch target: @Target, or a label
)

// opSpec is the one statement of an opcode: its mnemonic, its execution
// class and its operands in assembler order. The flags after class are
// derived from args once, when the table is built, so that each decode
// predicate is a single lookup.
type opSpec struct {
	name  string
	args  []operand
	class Class
	// dst: args name Dst. nsrc: the source registers read are
	// Src1 (nsrc >= 1) and Src2 (nsrc == 2). branch: args name a Target.
	// cond: a branch that reads registers, so its direction is predicted.
	dst          bool
	nsrc         uint8
	branch, cond bool
}

// spec builds an opcode's row of the instruction table.
func spec(name string, class Class, args ...operand) opSpec {
	s := opSpec{name: name, args: args, class: class}
	for _, a := range args {
		switch a {
		case argDst:
			s.dst = true
		case argSrc1, argMem:
			s.nsrc = max(s.nsrc, 1)
		case argSrc2:
			s.nsrc = 2
		case argTarget:
			s.branch = true
		}
	}
	s.cond = s.branch && s.nsrc > 0
	return s
}

// opSpecs is the instruction table. It has a row for every Op value, so
// an undefined opcode reads the zero row: no name, ClassNone, no
// operands.
var opSpecs = [256]opSpec{
	Nop:     spec("nop", ClassNone),
	Halt:    spec("halt", ClassNone),
	MovI:    spec("movi", ClassALU, argDst, argImm),
	Mov:     spec("mov", ClassALU, argDst, argSrc1),
	Add:     spec("add", ClassALU, argDst, argSrc1, argSrc2),
	AddI:    spec("addi", ClassALU, argDst, argSrc1, argImm),
	Sub:     spec("sub", ClassALU, argDst, argSrc1, argSrc2),
	And:     spec("and", ClassALU, argDst, argSrc1, argSrc2),
	Or:      spec("or", ClassALU, argDst, argSrc1, argSrc2),
	Xor:     spec("xor", ClassALU, argDst, argSrc1, argSrc2),
	ShlI:    spec("shli", ClassALU, argDst, argSrc1, argImm),
	ShrI:    spec("shri", ClassALU, argDst, argSrc1, argImm),
	Mul:     spec("mul", ClassMul, argDst, argSrc1, argSrc2),
	MulI:    spec("muli", ClassMul, argDst, argSrc1, argImm),
	Div:     spec("div", ClassSqrt, argDst, argSrc1, argSrc2),
	Sqrt:    spec("sqrt", ClassSqrt, argDst, argSrc1),
	Load:    spec("load", ClassLoad, argDst, argMem),
	Store:   spec("store", ClassStore, argSrc2, argMem),
	Flush:   spec("flush", ClassLoad, argMem),
	RdCycle: spec("rdcycle", ClassALU, argDst),
	Beq:     spec("beq", ClassBranch, argSrc1, argSrc2, argTarget),
	Bne:     spec("bne", ClassBranch, argSrc1, argSrc2, argTarget),
	Blt:     spec("blt", ClassBranch, argSrc1, argSrc2, argTarget),
	Bge:     spec("bge", ClassBranch, argSrc1, argSrc2, argTarget),
	Jmp:     spec("jmp", ClassBranch, argTarget),
	Fence:   spec("fence", ClassNone),
}

// Latencies (cycles from issue to completion) for each class, excluding
// memory operations whose latency depends on the cache hierarchy. These are
// defaults; the core's Config may override them.
const (
	// LatALU is the ALU latency.
	LatALU = 1
	// LatMul is the multiplier latency.
	LatMul = 4
	// LatSqrt is the Sqrt/Div latency. The unit is non-pipelined, so this
	// is also its occupancy (the paper's VSQRTPD: ~15-cycle latency,
	// ~9-12 cycle reciprocal throughput; we model full non-pipelining).
	LatSqrt = 12
	// LatBranch is the branch resolution latency once operands are ready.
	LatBranch = 1
)

// ClassLatency returns the default execution latency of class c. Memory
// classes return the minimum (address-generation) latency; the cache
// hierarchy adds the rest.
func ClassLatency(c Class) int {
	switch c {
	case ClassALU:
		return LatALU
	case ClassMul:
		return LatMul
	case ClassSqrt:
		return LatSqrt
	case ClassBranch:
		return LatBranch
	default:
		return 1
	}
}

// Pipelined reports whether execution units of class c accept a new
// operation every cycle. ClassSqrt units are non-pipelined: they are busy
// for the whole latency of the operation they execute.
func Pipelined(c Class) bool { return c != ClassSqrt }

// Inst is one instruction. The zero value is a Nop.
type Inst struct {
	Op  Op
	Dst Reg
	// Src1, Src2 are source registers. Which are meaningful depends on Op.
	Src1, Src2 Reg
	// Imm is the immediate operand (displacement for memory ops, value for
	// MovI/AddI/MulI, shift amount for ShlI/ShrI).
	Imm int64
	// Target is the branch target, an instruction index into the program.
	Target int
}

// HasDst reports whether the instruction writes a destination register.
func (in Inst) HasDst() bool { return opSpecs[in.Op].dst }

// Uses returns the source registers read by the instruction. The second
// return value counts how many of the two entries are meaningful; the
// others are zero.
func (in Inst) Uses() (srcs [2]Reg, n int) {
	n = int(opSpecs[in.Op].nsrc)
	if n > 0 {
		srcs[0] = in.Src1
	}
	if n > 1 {
		srcs[1] = in.Src2
	}
	return srcs, n
}

// IsBranch reports whether the instruction is a control-flow instruction.
func (in Inst) IsBranch() bool { return opSpecs[in.Op].branch }

// IsCondBranch reports whether the instruction is a conditional branch
// (predicted; may mispredict and squash).
func (in Inst) IsCondBranch() bool { return opSpecs[in.Op].cond }

// String renders the instruction in assembler syntax: the mnemonic, then
// its operands separated by commas.
func (in Inst) String() string {
	s := &opSpecs[in.Op]
	if s.name == "" {
		return in.Op.String() + " ?"
	}
	text := s.name
	for i, a := range s.args {
		if i == 0 {
			text += " "
		} else {
			text += ", "
		}
		text += a.format(in)
	}
	return text
}

// ParseInst parses one instruction in the syntax String prints: the
// mnemonic, then exactly the opcode's operands. The mnemonic and register
// names may be in any case, and an immediate or offset in any base
// strconv.ParseInt accepts with base 0. A register is r0..r31 without
// sign or leading zero. A branch target is either @N, N unsigned decimal
// digits, which sets Target, or a label: ParseInst leaves Target zero and
// returns the label text, unchecked, for the caller to resolve.
func ParseInst(line string) (in Inst, label string, err error) {
	mnemonic, rest := strings.TrimSpace(line), ""
	if i := strings.IndexAny(mnemonic, " \t"); i >= 0 {
		mnemonic, rest = mnemonic[:i], mnemonic[i+1:]
	}
	name := strings.ToLower(mnemonic)
	for in.Op < numOps && opSpecs[in.Op].name != name {
		in.Op++
	}
	if !in.Op.Valid() {
		return Inst{}, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	var args []string
	if strings.TrimSpace(rest) != "" {
		args = strings.Split(rest, ",")
	}
	s := &opSpecs[in.Op]
	if len(args) != len(s.args) {
		return Inst{}, "", fmt.Errorf("%s takes %d operands, got %d", name, len(s.args), len(args))
	}
	for i, a := range s.args {
		if err := a.parse(&in, strings.TrimSpace(args[i]), &label); err != nil {
			return Inst{}, "", fmt.Errorf("%s operand %d: %w", name, i+1, err)
		}
	}
	return in, label, nil
}

// format renders operand a of in.
func (a operand) format(in Inst) string {
	switch a {
	case argDst:
		return in.Dst.String()
	case argSrc1:
		return in.Src1.String()
	case argSrc2:
		return in.Src2.String()
	case argImm:
		return strconv.FormatInt(in.Imm, 10)
	case argMem:
		return fmt.Sprintf("%d(%s)", in.Imm, in.Src1)
	default:
		return fmt.Sprintf("@%d", in.Target)
	}
}

// parse sets the fields of in that operand a carries from its text s. A
// label target goes to *label instead.
func (a operand) parse(in *Inst, s string, label *string) (err error) {
	switch a {
	case argDst:
		in.Dst, err = parseReg(s)
	case argSrc1:
		in.Src1, err = parseReg(s)
	case argSrc2:
		in.Src2, err = parseReg(s)
	case argImm:
		in.Imm, err = strconv.ParseInt(s, 0, 64)
	case argMem:
		open := strings.IndexByte(s, '(')
		if open < 0 || !strings.HasSuffix(s, ")") {
			return fmt.Errorf("expected off(base), got %q", s)
		}
		if open > 0 {
			if in.Imm, err = strconv.ParseInt(s[:open], 0, 64); err != nil {
				return err
			}
		}
		in.Src1, err = parseReg(s[open+1 : len(s)-1])
	case argTarget:
		if s == "" {
			return fmt.Errorf("missing branch target")
		}
		if !strings.HasPrefix(s, "@") {
			*label = s
			return nil
		}
		if in.Target, err = parseDecimal(s[1:]); err != nil {
			return fmt.Errorf("bad branch target %q", s)
		}
	}
	return err
}

// parseReg parses a register name r0..r31 (or R0..R31), spelled as String
// prints it: no sign and no leading zero.
func parseReg(s string) (Reg, error) {
	digits, ok := strings.CutPrefix(strings.ToLower(s), "r")
	n, err := parseDecimal(digits)
	if !ok || err != nil || n >= NumRegs || (digits[0] == '0' && len(digits) > 1) {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

// parseDecimal parses a non-empty string of decimal digits: unlike
// strconv.Atoi, it takes no sign.
func parseDecimal(s string) (int, error) {
	if s == "" || strings.Trim(s, "0123456789") != "" {
		return 0, fmt.Errorf("not an unsigned decimal %q", s)
	}
	return strconv.Atoi(s)
}

// Validate reports an error when the instruction is malformed (bad opcode or
// out-of-range register). Branch targets are validated against a program by
// Program.Validate.
func (in Inst) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.HasDst() && !in.Dst.Valid() {
		return fmt.Errorf("isa: %s: invalid destination %s", in.Op, in.Dst)
	}
	srcs, n := in.Uses()
	for i := 0; i < n; i++ {
		if !srcs[i].Valid() {
			return fmt.Errorf("isa: %s: invalid source %s", in.Op, srcs[i])
		}
	}
	return nil
}
