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
package isa

import "fmt"

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

var opNames = [numOps]string{
	Nop:     "nop",
	Halt:    "halt",
	MovI:    "movi",
	Mov:     "mov",
	Add:     "add",
	AddI:    "addi",
	Sub:     "sub",
	And:     "and",
	Or:      "or",
	Xor:     "xor",
	ShlI:    "shli",
	ShrI:    "shri",
	Mul:     "mul",
	MulI:    "muli",
	Div:     "div",
	Sqrt:    "sqrt",
	Load:    "load",
	Store:   "store",
	Flush:   "flush",
	RdCycle: "rdcycle",
	Beq:     "beq",
	Bne:     "bne",
	Blt:     "blt",
	Bge:     "bge",
	Jmp:     "jmp",
	Fence:   "fence",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
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
func OpClass(o Op) Class {
	switch o {
	case Add, AddI, Sub, And, Or, Xor, ShlI, ShrI, Mov, MovI, RdCycle:
		return ClassALU
	case Mul, MulI:
		return ClassMul
	case Div, Sqrt:
		return ClassSqrt
	case Load, Flush:
		return ClassLoad
	case Store:
		return ClassStore
	case Beq, Bne, Blt, Bge, Jmp:
		return ClassBranch
	default:
		return ClassNone
	}
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
func (in Inst) HasDst() bool {
	switch in.Op {
	case MovI, Mov, Add, AddI, Sub, And, Or, Xor, ShlI, ShrI,
		Mul, MulI, Div, Sqrt, Load, RdCycle:
		return true
	}
	return false
}

// Uses returns the source registers read by the instruction. The second
// return value counts how many of the two entries are meaningful.
func (in Inst) Uses() (srcs [2]Reg, n int) {
	switch in.Op {
	case Mov, AddI, MulI, ShlI, ShrI, Sqrt, Load, Flush:
		return [2]Reg{in.Src1}, 1
	case Add, Sub, And, Or, Xor, Mul, Div, Store, Beq, Bne, Blt, Bge:
		return [2]Reg{in.Src1, in.Src2}, 2
	default:
		return [2]Reg{}, 0
	}
}

// IsBranch reports whether the instruction is a control-flow instruction.
func (in Inst) IsBranch() bool {
	switch in.Op {
	case Beq, Bne, Blt, Bge, Jmp:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch
// (predicted; may mispredict and squash).
func (in Inst) IsCondBranch() bool {
	switch in.Op {
	case Beq, Bne, Blt, Bge:
		return true
	}
	return false
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op {
	case Nop, Halt, Fence:
		return in.Op.String()
	case MovI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
	case Mov:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src1)
	case AddI, MulI, ShlI, ShrI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Dst, in.Src1, in.Imm)
	case Add, Sub, And, Or, Xor, Mul, Div:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
	case Sqrt:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src1)
	case Load:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Dst, in.Imm, in.Src1)
	case Store:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Src2, in.Imm, in.Src1)
	case Flush:
		return fmt.Sprintf("%s %d(%s)", in.Op, in.Imm, in.Src1)
	case RdCycle:
		return fmt.Sprintf("%s %s", in.Op, in.Dst)
	case Beq, Bne, Blt, Bge:
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Src1, in.Src2, in.Target)
	case Jmp:
		return fmt.Sprintf("%s @%d", in.Op, in.Target)
	default:
		return fmt.Sprintf("%s ?", in.Op)
	}
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
