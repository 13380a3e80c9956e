package isa

import (
	"strings"
	"testing"
)

func TestRegString(t *testing.T) {
	if got := R0.String(); got != "r0" {
		t.Errorf("R0.String() = %q, want %q", got, "r0")
	}
	if got := R31.String(); got != "r31" {
		t.Errorf("R31.String() = %q, want %q", got, "r31")
	}
}

func TestRegValid(t *testing.T) {
	if !R31.Valid() {
		t.Error("R31 should be valid")
	}
	if Reg(32).Valid() {
		t.Error("Reg(32) should be invalid")
	}
}

func TestOpStringAllDefined(t *testing.T) {
	for o := Op(0); o < numOps; o++ {
		s := o.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no name", uint8(o))
		}
	}
}

func TestOpValid(t *testing.T) {
	if !Load.Valid() {
		t.Error("Load should be valid")
	}
	if Op(200).Valid() {
		t.Error("Op(200) should be invalid")
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("Op(200).String() = %q", got)
	}
}

func TestOpClassEveryOpcodeClassified(t *testing.T) {
	want := map[Op]Class{
		Nop:     ClassNone,
		Halt:    ClassNone,
		MovI:    ClassALU,
		Mov:     ClassALU,
		Add:     ClassALU,
		AddI:    ClassALU,
		Sub:     ClassALU,
		And:     ClassALU,
		Or:      ClassALU,
		Xor:     ClassALU,
		ShlI:    ClassALU,
		ShrI:    ClassALU,
		Mul:     ClassMul,
		MulI:    ClassMul,
		Div:     ClassSqrt,
		Sqrt:    ClassSqrt,
		Load:    ClassLoad,
		Store:   ClassStore,
		Flush:   ClassLoad,
		RdCycle: ClassALU,
		Beq:     ClassBranch,
		Bne:     ClassBranch,
		Blt:     ClassBranch,
		Bge:     ClassBranch,
		Jmp:     ClassBranch,
		Fence:   ClassNone,
		Op(200): ClassNone,
	}
	for o := Op(0); o < numOps; o++ {
		if _, ok := want[o]; !ok {
			t.Errorf("opcode %s has no expected class", o)
		}
	}
	for op, cls := range want {
		if got := OpClass(op); got != cls {
			t.Errorf("OpClass(%s) = %s, want %s", op, got, cls)
		}
	}
}

func TestSqrtNonPipelined(t *testing.T) {
	if Pipelined(ClassSqrt) {
		t.Error("ClassSqrt must be non-pipelined (GDNPEU gadget requirement)")
	}
	for _, c := range []Class{ClassALU, ClassMul, ClassLoad, ClassStore, ClassBranch} {
		if !Pipelined(c) {
			t.Errorf("%s should be pipelined", c)
		}
	}
}

func TestClassLatencyPositive(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if ClassLatency(c) < 1 {
			t.Errorf("ClassLatency(%s) = %d, want >= 1", c, ClassLatency(c))
		}
	}
	if ClassLatency(ClassSqrt) <= ClassLatency(ClassALU) {
		t.Error("sqrt latency must dominate ALU latency for the interference cascade")
	}
}

// everyOpcode fails the test unless ops names every defined opcode.
func everyOpcode(t *testing.T, ops []Op) {
	t.Helper()
	seen := map[Op]bool{}
	for _, o := range ops {
		seen[o] = true
	}
	for o := Op(0); o < numOps; o++ {
		if !seen[o] {
			t.Errorf("opcode %s has no case", o)
		}
	}
}

func TestInstHasDst(t *testing.T) {
	cases := []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: Nop}, false},
		{Inst{Op: Halt}, false},
		{Inst{Op: MovI, Dst: R1, Imm: 7}, true},
		{Inst{Op: Mov, Dst: R1, Src1: R2}, true},
		{Inst{Op: Add, Dst: R1, Src1: R2, Src2: R3}, true},
		{Inst{Op: AddI, Dst: R1, Src1: R2, Imm: 1}, true},
		{Inst{Op: Sub, Dst: R1, Src1: R2, Src2: R3}, true},
		{Inst{Op: And, Dst: R1, Src1: R2, Src2: R3}, true},
		{Inst{Op: Or, Dst: R1, Src1: R2, Src2: R3}, true},
		{Inst{Op: Xor, Dst: R1, Src1: R2, Src2: R3}, true},
		{Inst{Op: ShlI, Dst: R1, Src1: R2, Imm: 3}, true},
		{Inst{Op: ShrI, Dst: R1, Src1: R2, Imm: 3}, true},
		{Inst{Op: Mul, Dst: R1, Src1: R2, Src2: R3}, true},
		{Inst{Op: MulI, Dst: R1, Src1: R2, Imm: 3}, true},
		{Inst{Op: Div, Dst: R1, Src1: R2, Src2: R3}, true},
		{Inst{Op: Sqrt, Dst: R1, Src1: R2}, true},
		{Inst{Op: Load, Dst: R1, Src1: R2}, true},
		{Inst{Op: Store, Dst: R9, Src1: R1, Src2: R2}, false},
		{Inst{Op: Flush, Dst: R9, Src1: R1}, false},
		{Inst{Op: RdCycle, Dst: R5}, true},
		{Inst{Op: Beq, Dst: R9, Src1: R1, Src2: R2}, false},
		{Inst{Op: Bne, Src1: R1, Src2: R2}, false},
		{Inst{Op: Blt, Src1: R1, Src2: R2}, false},
		{Inst{Op: Bge, Src1: R1, Src2: R2}, false},
		{Inst{Op: Jmp, Dst: R9}, false},
		{Inst{Op: Fence, Dst: R9}, false},
		{Inst{Op: Op(200), Dst: R9}, false},
	}
	var ops []Op
	for _, c := range cases {
		ops = append(ops, c.in.Op)
		if got := c.in.HasDst(); got != c.want {
			t.Errorf("%s: HasDst() = %v, want %v", c.in, got, c.want)
		}
	}
	everyOpcode(t, ops)
}

// TestInstUses pins the registers each opcode reads. Every instruction
// carries junk in the fields its opcode ignores: Uses must leave the
// entries past n zero, because the emulator indexes the register file
// with both entries.
func TestInstUses(t *testing.T) {
	cases := []struct {
		in   Inst
		srcs [2]Reg
		n    int
	}{
		{Inst{Op: Nop, Dst: R7, Src1: R8, Src2: R9}, [2]Reg{}, 0},
		{Inst{Op: Halt, Src1: R8, Src2: R9}, [2]Reg{}, 0},
		{Inst{Op: MovI, Dst: R1, Src1: R8, Src2: R9, Imm: 7}, [2]Reg{}, 0},
		{Inst{Op: Mov, Dst: R1, Src1: R2, Src2: R9}, [2]Reg{R2}, 1},
		{Inst{Op: Add, Dst: R1, Src1: R2, Src2: R3}, [2]Reg{R2, R3}, 2},
		{Inst{Op: AddI, Dst: R1, Src1: R2, Src2: R9, Imm: 1}, [2]Reg{R2}, 1},
		{Inst{Op: Sub, Dst: R1, Src1: R4, Src2: R5}, [2]Reg{R4, R5}, 2},
		{Inst{Op: And, Dst: R1, Src1: R6, Src2: R7}, [2]Reg{R6, R7}, 2},
		{Inst{Op: Or, Dst: R1, Src1: R8, Src2: R9}, [2]Reg{R8, R9}, 2},
		{Inst{Op: Xor, Dst: R1, Src1: R10, Src2: R11}, [2]Reg{R10, R11}, 2},
		{Inst{Op: ShlI, Dst: R1, Src1: R12, Src2: R9, Imm: 3}, [2]Reg{R12}, 1},
		{Inst{Op: ShrI, Dst: R1, Src1: R13, Src2: R9, Imm: 3}, [2]Reg{R13}, 1},
		{Inst{Op: Mul, Dst: R1, Src1: R14, Src2: R15}, [2]Reg{R14, R15}, 2},
		{Inst{Op: MulI, Dst: R1, Src1: R16, Src2: R9, Imm: 3}, [2]Reg{R16}, 1},
		{Inst{Op: Div, Dst: R1, Src1: R17, Src2: R18}, [2]Reg{R17, R18}, 2},
		{Inst{Op: Sqrt, Dst: R1, Src1: R19, Src2: R9}, [2]Reg{R19}, 1},
		{Inst{Op: Load, Dst: R1, Src1: R4, Src2: R9}, [2]Reg{R4}, 1},
		{Inst{Op: Store, Dst: R9, Src1: R1, Src2: R2}, [2]Reg{R1, R2}, 2},
		{Inst{Op: Flush, Dst: R9, Src1: R20, Src2: R9}, [2]Reg{R20}, 1},
		{Inst{Op: RdCycle, Dst: R5, Src1: R8, Src2: R9}, [2]Reg{}, 0},
		{Inst{Op: Beq, Dst: R9, Src1: R21, Src2: R22}, [2]Reg{R21, R22}, 2},
		{Inst{Op: Bne, Src1: R23, Src2: R24}, [2]Reg{R23, R24}, 2},
		{Inst{Op: Blt, Src1: R25, Src2: R26}, [2]Reg{R25, R26}, 2},
		{Inst{Op: Bge, Src1: R27, Src2: R28}, [2]Reg{R27, R28}, 2},
		{Inst{Op: Jmp, Dst: R7, Src1: R8, Src2: R9}, [2]Reg{}, 0},
		{Inst{Op: Fence, Src1: R8, Src2: R9}, [2]Reg{}, 0},
		{Inst{Op: Op(200), Src1: R8, Src2: R9}, [2]Reg{}, 0},
	}
	var ops []Op
	for _, c := range cases {
		ops = append(ops, c.in.Op)
		if srcs, n := c.in.Uses(); srcs != c.srcs || n != c.n {
			t.Errorf("%s: Uses() = %v/%d, want %v/%d", c.in, srcs, n, c.srcs, c.n)
		}
	}
	everyOpcode(t, ops)
}

func TestInstPredicates(t *testing.T) {
	cases := []struct {
		op           Op
		branch, cond bool
	}{
		{Nop, false, false},
		{Halt, false, false},
		{MovI, false, false},
		{Mov, false, false},
		{Add, false, false},
		{AddI, false, false},
		{Sub, false, false},
		{And, false, false},
		{Or, false, false},
		{Xor, false, false},
		{ShlI, false, false},
		{ShrI, false, false},
		{Mul, false, false},
		{MulI, false, false},
		{Div, false, false},
		{Sqrt, false, false},
		{Load, false, false},
		{Store, false, false},
		{Flush, false, false},
		{RdCycle, false, false},
		{Beq, true, true},
		{Bne, true, true},
		{Blt, true, true},
		{Bge, true, true},
		{Jmp, true, false},
		{Fence, false, false},
		{Op(200), false, false},
	}
	var ops []Op
	for _, c := range cases {
		ops = append(ops, c.op)
		in := Inst{Op: c.op, Src1: R1, Src2: R2}
		if got := in.IsBranch(); got != c.branch {
			t.Errorf("%s: IsBranch() = %v, want %v", c.op, got, c.branch)
		}
		if got := in.IsCondBranch(); got != c.cond {
			t.Errorf("%s: IsCondBranch() = %v, want %v", c.op, got, c.cond)
		}
	}
	everyOpcode(t, ops)
}

// TestInstString pins the text of every opcode: specsim -trace and the
// timelines example print it, and the assembler reads it back. Fields an
// opcode ignores must not show.
func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: Nop, Dst: R5, Src1: R6, Imm: 9, Target: 4}, "nop"},
		{Inst{Op: Halt}, "halt"},
		{Inst{Op: MovI, Dst: R1, Imm: 42}, "movi r1, 42"},
		{Inst{Op: MovI, Dst: R2, Src1: R9, Imm: -7}, "movi r2, -7"},
		{Inst{Op: Mov, Dst: R1, Src1: R2, Src2: R9}, "mov r1, r2"},
		{Inst{Op: Add, Dst: R1, Src1: R2, Src2: R3, Imm: 5}, "add r1, r2, r3"},
		{Inst{Op: AddI, Dst: R1, Src1: R2, Imm: -5}, "addi r1, r2, -5"},
		{Inst{Op: Sub, Dst: R4, Src1: R5, Src2: R6}, "sub r4, r5, r6"},
		{Inst{Op: And, Dst: R7, Src1: R8, Src2: R9}, "and r7, r8, r9"},
		{Inst{Op: Or, Dst: R10, Src1: R11, Src2: R12}, "or r10, r11, r12"},
		{Inst{Op: Xor, Dst: R13, Src1: R14, Src2: R15}, "xor r13, r14, r15"},
		{Inst{Op: ShlI, Dst: R1, Src1: R2, Imm: 6}, "shli r1, r2, 6"},
		{Inst{Op: ShrI, Dst: R3, Src1: R4, Imm: 2}, "shri r3, r4, 2"},
		{Inst{Op: Mul, Dst: R16, Src1: R17, Src2: R18}, "mul r16, r17, r18"},
		{Inst{Op: MulI, Dst: R19, Src1: R20, Imm: 64}, "muli r19, r20, 64"},
		{Inst{Op: Div, Dst: R21, Src1: R22, Src2: R23}, "div r21, r22, r23"},
		{Inst{Op: Sqrt, Dst: R1, Src1: R2}, "sqrt r1, r2"},
		{Inst{Op: Load, Dst: R4, Src1: R5, Imm: 16}, "load r4, 16(r5)"},
		{Inst{Op: Load, Dst: R31, Src1: R0, Imm: -8}, "load r31, -8(r0)"},
		{Inst{Op: Store, Dst: R9, Src1: R5, Src2: R6, Imm: 8}, "store r6, 8(r5)"},
		{Inst{Op: Flush, Src1: R3, Imm: 64}, "flush 64(r3)"},
		{Inst{Op: Flush, Src1: R3}, "flush 0(r3)"},
		{Inst{Op: RdCycle, Dst: R31}, "rdcycle r31"},
		{Inst{Op: Beq, Src1: R1, Src2: R2, Target: 7}, "beq r1, r2, @7"},
		{Inst{Op: Bne, Src1: R3, Src2: R4, Target: 0}, "bne r3, r4, @0"},
		{Inst{Op: Blt, Dst: R9, Src1: R5, Src2: R6, Target: 12}, "blt r5, r6, @12"},
		{Inst{Op: Bge, Src1: R7, Src2: R8, Target: 1}, "bge r7, r8, @1"},
		{Inst{Op: Jmp, Src1: R4, Target: 3}, "jmp @3"},
		{Inst{Op: Fence}, "fence"},
		{Inst{Op: Op(200), Dst: R1, Imm: 3}, "op(200) ?"},
	}
	var ops []Op
	for _, c := range cases {
		ops = append(ops, c.in.Op)
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	everyOpcode(t, ops)
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("Op(200).String() = %q, want %q", got, "op(200)")
	}
}

func TestInstValidate(t *testing.T) {
	if err := (Inst{Op: Add, Dst: R1, Src1: R2, Src2: R3}).Validate(); err != nil {
		t.Errorf("valid inst rejected: %v", err)
	}
	if err := (Inst{Op: Op(99)}).Validate(); err == nil {
		t.Error("invalid opcode accepted")
	}
	if err := (Inst{Op: Add, Dst: Reg(40), Src1: R1, Src2: R2}).Validate(); err == nil {
		t.Error("invalid dst accepted")
	}
	if err := (Inst{Op: Add, Dst: R1, Src1: Reg(40), Src2: R2}).Validate(); err == nil {
		t.Error("invalid src accepted")
	}
}

func TestProgramValidate(t *testing.T) {
	p := NewProgram([]Inst{
		{Op: MovI, Dst: R1, Imm: 1},
		{Op: Beq, Src1: R1, Src2: R1, Target: 0},
		{Op: Halt},
	})
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := NewProgram([]Inst{{Op: Jmp, Target: 5}})
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range branch target accepted")
	}
	empty := NewProgram(nil)
	if err := empty.Validate(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestProgramAddressing(t *testing.T) {
	p := NewProgram(make([]Inst, 10))
	addr := p.InstAddr(3)
	if addr != DefaultCodeBase+3*InstBytes {
		t.Errorf("InstAddr(3) = %#x", addr)
	}
}

func TestProgramString(t *testing.T) {
	p := NewProgram([]Inst{
		{Op: MovI, Dst: R1, Imm: 5},
		{Op: Halt},
	})
	p.Symbols["start"] = 0
	s := p.String()
	if !strings.Contains(s, "start:") || !strings.Contains(s, "movi r1, 5") {
		t.Errorf("Program.String() = %q", s)
	}
}
