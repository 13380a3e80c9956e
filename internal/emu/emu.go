// Package emu is the architectural (golden-model) emulator: it executes
// programs sequentially with no microarchitecture at all. It serves four
// roles:
//
//  1. differential-testing oracle for the out-of-order core (final
//     architectural state must match),
//  2. perfect branch oracle — the branch outcomes its Hook sees drive the
//     "NoSpec(E)" executions required by the §5.1 security definition,
//  3. the static leak detector's correct path — internal/detect builds
//     its operand latency classes and branch snapshots from the Hook,
//  4. a fast way for tests to compute expected register/memory values.
package emu

import (
	"errors"
	"fmt"

	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// ErrStepLimit is wrapped by Run's error when MaxSteps dynamic
// instructions execute without reaching a halt. Callers distinguish it
// with errors.Is: a step-limit run is not a verdict about the program —
// the accompanying Result is a consistent prefix (see Run) — and analyses
// built on the emulator (the NoSpec oracle, the static leak detector)
// must surface it as an error rather than classify from the prefix.
var ErrStepLimit = errors.New("step limit exceeded")

// Hook observes a Machine's run.
type Hook interface {
	// Observe is called once per executed instruction, in program order
	// and after the instruction takes effect, halt included.
	Observe(Step)
}

// Step is one executed instruction as a Hook sees it.
type Step struct {
	PC   int
	Inst isa.Inst
	// Addr is a load's or store's effective address (0 otherwise).
	Addr int64
	// Taken is a conditional branch's outcome (false otherwise).
	Taken bool
	// Regs is the machine's register file after the instruction. The
	// hook may read it during the call; it must not write or keep it.
	Regs *[isa.NumRegs]int64
}

// Result is the outcome of an emulated run.
type Result struct {
	// Regs is the final architectural register file.
	Regs [isa.NumRegs]int64
	// InstCount is the number of dynamic instructions executed (including
	// the final halt).
	InstCount int
	// Halted is true when the program reached a halt (vs. the step limit).
	Halted bool
}

// DefaultMaxSteps bounds runaway programs.
const DefaultMaxSteps = 2_000_000

// Machine is an architectural emulator instance.
type Machine struct {
	prog *isa.Program
	mem  *mem.Memory
	// MaxSteps bounds the dynamic instruction count; DefaultMaxSteps when 0.
	MaxSteps int
	// Hook, when non-nil, observes every executed instruction.
	Hook Hook

	regs [isa.NumRegs]int64
}

// New returns a Machine executing prog against memory m. The memory is
// mutated by stores.
func New(prog *isa.Program, m *mem.Memory) *Machine {
	return &Machine{prog: prog, mem: m}
}

// SetReg sets an initial register value.
func (e *Machine) SetReg(r isa.Reg, v int64) { e.regs[r] = v }

// Run executes the program from instruction 0 until halt or the step
// limit. On the step limit it returns BOTH a non-nil Result and a non-nil
// error wrapping ErrStepLimit: the Result is the consistent prefix of the
// aborted run — Regs is the register file after the last completed
// instruction, InstCount counts exactly the executed instructions, and the
// Hook has seen exactly those instructions, in order. Out-of-range PCs and
// unimplemented opcodes return a nil Result.
func (e *Machine) Run() (*Result, error) {
	max := e.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	res := &Result{}
	pc := 0
	for steps := 0; steps < max; steps++ {
		if pc < 0 || pc >= e.prog.Len() {
			return nil, fmt.Errorf("emu: pc %d out of range [0,%d)", pc, e.prog.Len())
		}
		in := e.prog.Insts[pc]
		res.InstCount++
		next := pc + 1
		var addr int64
		taken := false
		switch in.Op {
		case isa.Nop, isa.Fence, isa.Flush, isa.Halt:
			// Architecturally invisible. Flush affects only cache state.
		case isa.MovI, isa.Mov, isa.Add, isa.AddI, isa.Sub, isa.And, isa.Or, isa.Xor,
			isa.ShlI, isa.ShrI, isa.Mul, isa.MulI, isa.Div, isa.Sqrt:
			// Read only the registers the op uses: a field it ignores
			// need not name a valid register.
			srcs, _ := in.Uses()
			e.regs[in.Dst] = ALU(in, e.regs[srcs[0]], e.regs[srcs[1]])
		case isa.Load:
			addr = e.regs[in.Src1] + in.Imm
			e.regs[in.Dst] = e.mem.Read64(addr)
		case isa.Store:
			addr = e.regs[in.Src1] + in.Imm
			e.mem.Write64(addr, e.regs[in.Src2])
		case isa.RdCycle:
			// Architecturally: a monotonic counter. The emulator has no
			// cycles; instruction count is the closest monotone analog.
			e.regs[in.Dst] = int64(res.InstCount)
		case isa.Beq, isa.Bne, isa.Blt, isa.Bge:
			taken = BranchTaken(in.Op, e.regs[in.Src1], e.regs[in.Src2])
			if taken {
				next = in.Target
			}
		case isa.Jmp:
			next = in.Target
		default:
			return nil, fmt.Errorf("emu: unimplemented opcode %s at pc %d", in.Op, pc)
		}
		if e.Hook != nil {
			e.Hook.Observe(Step{PC: pc, Inst: in, Addr: addr, Taken: taken, Regs: &e.regs})
		}
		if in.Op == isa.Halt {
			res.Halted = true
			res.Regs = e.regs
			return res, nil
		}
		pc = next
	}
	res.Regs = e.regs
	return res, fmt.Errorf("emu: %w after %d instructions", ErrStepLimit, max)
}

// ALU evaluates a register-writing arithmetic or logic instruction on its
// source values a and b (Src1 and Src2; an operand the op does not use is
// ignored). Shared with the out-of-order core and the static detector so
// all three machines agree on semantics.
func ALU(in isa.Inst, a, b int64) int64 {
	switch in.Op {
	case isa.MovI:
		return in.Imm
	case isa.Mov:
		return a
	case isa.Add:
		return a + b
	case isa.AddI:
		return a + in.Imm
	case isa.Sub:
		return a - b
	case isa.And:
		return a & b
	case isa.Or:
		return a | b
	case isa.Xor:
		return a ^ b
	case isa.ShlI:
		return a << uint(in.Imm&63)
	case isa.ShrI:
		return int64(uint64(a) >> uint(in.Imm&63))
	case isa.Mul:
		return a * b
	case isa.MulI:
		return a * in.Imm
	case isa.Div:
		return SafeDiv(a, b)
	case isa.Sqrt:
		return ISqrt(a)
	default:
		panic(fmt.Sprintf("emu: %s is not an ALU op", in.Op))
	}
}

// BranchTaken evaluates a conditional branch condition. Shared with the
// out-of-order core so both machines agree on semantics.
func BranchTaken(op isa.Op, a, b int64) bool {
	switch op {
	case isa.Beq:
		return a == b
	case isa.Bne:
		return a != b
	case isa.Blt:
		return a < b
	case isa.Bge:
		return a >= b
	default:
		panic(fmt.Sprintf("emu: %s is not a conditional branch", op))
	}
}

// SafeDiv is the ISA's division: x/y with y==0 yielding 0 (no faults in
// this machine; Meltdown-style exception speculation is out of scope).
func SafeDiv(x, y int64) int64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// ISqrt is the ISA's integer square root of |x|.
func ISqrt(x int64) int64 {
	if x < 0 {
		x = -x
	}
	if x < 2 {
		return x
	}
	// Newton's method on integers.
	r := int64(1) << ((bits64(x) + 1) / 2)
	for {
		nr := (r + x/r) / 2
		if nr >= r {
			return r
		}
		r = nr
	}
}

func bits64(x int64) uint {
	n := uint(0)
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}
