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
		Fence:   ClassNone,
		Add:     ClassALU,
		AddI:    ClassALU,
		MovI:    ClassALU,
		RdCycle: ClassALU,
		Mul:     ClassMul,
		MulI:    ClassMul,
		Div:     ClassSqrt,
		Sqrt:    ClassSqrt,
		Load:    ClassLoad,
		Flush:   ClassLoad,
		Store:   ClassStore,
		Beq:     ClassBranch,
		Jmp:     ClassBranch,
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

func TestInstHasDst(t *testing.T) {
	cases := []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: Add, Dst: R1, Src1: R2, Src2: R3}, true},
		{Inst{Op: Load, Dst: R1, Src1: R2}, true},
		{Inst{Op: Store, Src1: R1, Src2: R2}, false},
		{Inst{Op: Beq, Src1: R1, Src2: R2}, false},
		{Inst{Op: Flush, Src1: R1}, false},
		{Inst{Op: RdCycle, Dst: R5}, true},
		{Inst{Op: Nop}, false},
		{Inst{Op: Fence}, false},
	}
	for _, c := range cases {
		if got := c.in.HasDst(); got != c.want {
			t.Errorf("%s: HasDst() = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestInstUses(t *testing.T) {
	srcs, n := Inst{Op: Add, Dst: R1, Src1: R2, Src2: R3}.Uses()
	if n != 2 || srcs[0] != R2 || srcs[1] != R3 {
		t.Errorf("Add uses = %v/%d", srcs, n)
	}
	srcs, n = Inst{Op: Load, Dst: R1, Src1: R4}.Uses()
	if n != 1 || srcs[0] != R4 {
		t.Errorf("Load uses = %v/%d", srcs, n)
	}
	_, n = Inst{Op: MovI, Dst: R1, Imm: 7}.Uses()
	if n != 0 {
		t.Errorf("MovI uses n = %d, want 0", n)
	}
	srcs, n = Inst{Op: Store, Src1: R1, Src2: R2}.Uses()
	if n != 2 || srcs[0] != R1 || srcs[1] != R2 {
		t.Errorf("Store uses = %v/%d", srcs, n)
	}
}

func TestInstPredicates(t *testing.T) {
	b := Inst{Op: Blt, Src1: R1, Src2: R2, Target: 0}
	if !b.IsBranch() || !b.IsCondBranch() {
		t.Error("Blt should be a conditional branch")
	}
	j := Inst{Op: Jmp, Target: 0}
	if !j.IsBranch() || j.IsCondBranch() {
		t.Error("Jmp is an unconditional branch")
	}
	add := Inst{Op: Add, Dst: R1, Src1: R2, Src2: R3}
	if add.IsBranch() {
		t.Error("Add is plain ALU")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: MovI, Dst: R1, Imm: 42}, "movi r1, 42"},
		{Inst{Op: Add, Dst: R1, Src1: R2, Src2: R3}, "add r1, r2, r3"},
		{Inst{Op: Load, Dst: R4, Src1: R5, Imm: 16}, "load r4, 16(r5)"},
		{Inst{Op: Store, Src1: R5, Src2: R6, Imm: 8}, "store r6, 8(r5)"},
		{Inst{Op: Beq, Src1: R1, Src2: R2, Target: 7}, "beq r1, r2, @7"},
		{Inst{Op: Sqrt, Dst: R1, Src1: R2}, "sqrt r1, r2"},
		{Inst{Op: Fence}, "fence"},
		{Inst{Op: Flush, Src1: R3, Imm: 64}, "flush 64(r3)"},
		{Inst{Op: Jmp, Target: 3}, "jmp @3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
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
