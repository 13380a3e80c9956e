package asm

import (
	"strings"
	"testing"

	"specinterference/internal/isa"
)

func TestBuilderBasic(t *testing.T) {
	p, err := NewBuilder().
		MovI(isa.R1, 10).
		MovI(isa.R2, 0).
		Label("loop").
		AddI(isa.R2, isa.R2, 1).
		Blt(isa.R2, isa.R1, "loop").
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 {
		t.Fatalf("Len = %d, want 5", p.Len())
	}
	if p.Insts[3].Op != isa.Blt || p.Insts[3].Target != 2 {
		t.Errorf("branch = %s, want blt ... @2", p.Insts[3])
	}
	if p.Symbols["loop"] != 2 {
		t.Errorf("Symbols[loop] = %d, want 2", p.Symbols["loop"])
	}
}

func TestBuilderForwardReference(t *testing.T) {
	p, err := NewBuilder().
		MovI(isa.R1, 0).
		Beq(isa.R1, isa.R1, "end").
		Nop().
		Label("end").
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[1].Target != 3 {
		t.Errorf("forward branch target = %d, want 3", p.Insts[1].Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	_, err := NewBuilder().Jmp("nowhere").Halt().Build()
	if err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("expected undefined-label error, got %v", err)
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate label")
		}
	}()
	NewBuilder().Label("a").Nop().Label("a")
}

func TestBuilderEmitInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid instruction")
		}
	}()
	NewBuilder().Emit(isa.Inst{Op: isa.Add, Dst: isa.Reg(60)})
}

func TestBuilderAllEmitters(t *testing.T) {
	p := NewBuilder().
		Nop().Fence().
		MovI(isa.R1, 1).Mov(isa.R2, isa.R1).
		Add(isa.R3, isa.R1, isa.R2).AddI(isa.R3, isa.R3, 4).
		Sub(isa.R4, isa.R3, isa.R1).
		And(isa.R5, isa.R4, isa.R3).Or(isa.R5, isa.R5, isa.R1).Xor(isa.R5, isa.R5, isa.R5).
		ShlI(isa.R6, isa.R1, 6).ShrI(isa.R6, isa.R6, 3).
		Mul(isa.R7, isa.R6, isa.R1).MulI(isa.R7, isa.R7, 3).
		Div(isa.R8, isa.R7, isa.R1).Sqrt(isa.R9, isa.R8).
		Load(isa.R10, isa.R1, 8).Store(isa.R1, 16, isa.R10).Flush(isa.R1, 0).
		RdCycle(isa.R11).
		Halt().
		MustBuild()
	if p.Len() != 21 {
		t.Fatalf("Len = %d, want 21", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderSetCodeBase(t *testing.T) {
	p := NewBuilder().SetCodeBase(0x1000).Halt().MustBuild()
	if p.CodeBase != 0x1000 {
		t.Errorf("CodeBase = %#x", p.CodeBase)
	}
}

func TestBuilderPC(t *testing.T) {
	b := NewBuilder()
	if b.PC() != 0 {
		t.Error("fresh builder PC != 0")
	}
	b.Nop().Nop()
	if b.PC() != 2 {
		t.Errorf("PC = %d, want 2", b.PC())
	}
}

func TestAssembleRoundTrip(t *testing.T) {
	src := `
start:
    movi r1, 10
    movi r2, 0
loop:
    addi r2, r2, 1      ; increment
    blt  r2, r1, loop   # back edge
    load r3, 64(r2)
    store r3, 8(r1)
    flush 0(r1)
    sqrt r4, r3
    rdcycle r5
    fence
    jmp end
    nop
end:
    halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Op{isa.MovI, isa.MovI, isa.AddI, isa.Blt, isa.Load,
		isa.Store, isa.Flush, isa.Sqrt, isa.RdCycle, isa.Fence, isa.Jmp,
		isa.Nop, isa.Halt}
	if p.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(want))
	}
	for i, op := range want {
		if p.Insts[i].Op != op {
			t.Errorf("inst %d op = %s, want %s", i, p.Insts[i].Op, op)
		}
	}
	if p.Insts[3].Target != 2 {
		t.Errorf("blt target = %d, want 2", p.Insts[3].Target)
	}
	if p.Insts[10].Target != 12 {
		t.Errorf("jmp target = %d, want 12", p.Insts[10].Target)
	}
	if p.Insts[4].Imm != 64 || p.Insts[4].Src1 != isa.R2 {
		t.Errorf("load parsed as %s", p.Insts[4])
	}
	if p.Insts[5].Src2 != isa.R3 || p.Insts[5].Src1 != isa.R1 || p.Insts[5].Imm != 8 {
		t.Errorf("store parsed as %s", p.Insts[5])
	}
}

func TestAssembleNumericTarget(t *testing.T) {
	p := MustAssemble("beq r1, r2, @0\nhalt")
	if p.Insts[0].Target != 0 {
		t.Errorf("target = %d", p.Insts[0].Target)
	}
}

func TestAssembleThreeRegOps(t *testing.T) {
	p := MustAssemble(`
    add r1, r2, r3
    sub r1, r2, r3
    and r1, r2, r3
    or  r1, r2, r3
    xor r1, r2, r3
    mul r1, r2, r3
    div r1, r2, r3
    halt`)
	want := []isa.Op{isa.Add, isa.Sub, isa.And, isa.Or, isa.Xor, isa.Mul, isa.Div}
	for i, op := range want {
		in := p.Insts[i]
		if in.Op != op || in.Dst != isa.R1 || in.Src1 != isa.R2 || in.Src2 != isa.R3 {
			t.Errorf("inst %d = %s", i, in)
		}
	}
}

func TestAssembleImmediateForms(t *testing.T) {
	p := MustAssemble("addi r1, r2, -5\nmuli r3, r4, 0x40\nshli r5, r6, 6\nshri r7, r8, 2\nhalt")
	if p.Insts[0].Imm != -5 {
		t.Errorf("addi imm = %d", p.Insts[0].Imm)
	}
	if p.Insts[1].Imm != 0x40 {
		t.Errorf("muli imm = %d", p.Insts[1].Imm)
	}
}

func TestAssembleMemOperandNoOffset(t *testing.T) {
	p := MustAssemble("load r1, (r2)\nhalt")
	if p.Insts[0].Imm != 0 || p.Insts[0].Src1 != isa.R2 {
		t.Errorf("load = %s", p.Insts[0])
	}
}

// TestAssembleEveryMnemonic pins what each mnemonic assembles to,
// written out by hand rather than printed by isa, so a printer and a
// parser that drift together still fail here.
func TestAssembleEveryMnemonic(t *testing.T) {
	cases := []struct {
		src  string
		want isa.Inst
	}{
		{"nop", isa.Inst{Op: isa.Nop}},
		{"halt", isa.Inst{Op: isa.Halt}},
		{"movi r1, 42", isa.Inst{Op: isa.MovI, Dst: isa.R1, Imm: 42}},
		{"mov r1, r2", isa.Inst{Op: isa.Mov, Dst: isa.R1, Src1: isa.R2}},
		{"add r1, r2, r3", isa.Inst{Op: isa.Add, Dst: isa.R1, Src1: isa.R2, Src2: isa.R3}},
		{"addi r1, r2, -5", isa.Inst{Op: isa.AddI, Dst: isa.R1, Src1: isa.R2, Imm: -5}},
		{"sub r4, r5, r6", isa.Inst{Op: isa.Sub, Dst: isa.R4, Src1: isa.R5, Src2: isa.R6}},
		{"and r7, r8, r9", isa.Inst{Op: isa.And, Dst: isa.R7, Src1: isa.R8, Src2: isa.R9}},
		{"or r10, r11, r12", isa.Inst{Op: isa.Or, Dst: isa.R10, Src1: isa.R11, Src2: isa.R12}},
		{"xor r13, r14, r15", isa.Inst{Op: isa.Xor, Dst: isa.R13, Src1: isa.R14, Src2: isa.R15}},
		{"shli r1, r2, 6", isa.Inst{Op: isa.ShlI, Dst: isa.R1, Src1: isa.R2, Imm: 6}},
		{"shri r3, r4, 2", isa.Inst{Op: isa.ShrI, Dst: isa.R3, Src1: isa.R4, Imm: 2}},
		{"mul r16, r17, r18", isa.Inst{Op: isa.Mul, Dst: isa.R16, Src1: isa.R17, Src2: isa.R18}},
		{"muli r19, r20, 0x40", isa.Inst{Op: isa.MulI, Dst: isa.R19, Src1: isa.R20, Imm: 64}},
		{"div r21, r22, r23", isa.Inst{Op: isa.Div, Dst: isa.R21, Src1: isa.R22, Src2: isa.R23}},
		{"sqrt r1, r2", isa.Inst{Op: isa.Sqrt, Dst: isa.R1, Src1: isa.R2}},
		{"load r4, 16(r5)", isa.Inst{Op: isa.Load, Dst: isa.R4, Src1: isa.R5, Imm: 16}},
		{"store r6, -8(r5)", isa.Inst{Op: isa.Store, Src1: isa.R5, Src2: isa.R6, Imm: -8}},
		{"flush (r3)", isa.Inst{Op: isa.Flush, Src1: isa.R3}},
		{"rdcycle r31", isa.Inst{Op: isa.RdCycle, Dst: isa.R31}},
		{"beq r1, r2, @0", isa.Inst{Op: isa.Beq, Src1: isa.R1, Src2: isa.R2}},
		{"bne r3, r4, @1", isa.Inst{Op: isa.Bne, Src1: isa.R3, Src2: isa.R4, Target: 1}},
		{"blt r5, r6, end", isa.Inst{Op: isa.Blt, Src1: isa.R5, Src2: isa.R6, Target: 1}},
		{"bge r7, r8, end", isa.Inst{Op: isa.Bge, Src1: isa.R7, Src2: isa.R8, Target: 1}},
		{"jmp end", isa.Inst{Op: isa.Jmp, Target: 1}},
		{"jmp @0", isa.Inst{Op: isa.Jmp}},
		{"fence", isa.Inst{Op: isa.Fence}},
		{"MOVI\tR1 , 0b101", isa.Inst{Op: isa.MovI, Dst: isa.R1, Imm: 5}},
		{"Load r2,8(R3)", isa.Inst{Op: isa.Load, Dst: isa.R2, Src1: isa.R3, Imm: 8}},
	}
	for _, c := range cases {
		p, err := Assemble(c.src + "\nend: halt")
		if err != nil {
			t.Errorf("Assemble(%q): %v", c.src, err)
			continue
		}
		if got := p.Insts[0]; got != c.want {
			t.Errorf("Assemble(%q) = %+v, want %+v", c.src, got, c.want)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"add r1, r2",
		"add r1, r2, r3, r4",
		"movi r99, 1",
		"load r1, r2",
		"beq r1, r2, 9bad",
		"jmp",
		"nop r1",
		"movi r1, zz",
		"1label: halt",
		"dup: nop\ndup: halt",
		"beq r1, r2, @x",
		"load r1, 8(r2",
		"load r1, z(r2)",
		"store r1, 8(rr)",
		"rdcycle r1, r2",
		"movi r1, 2, 3",
		"addi r1, r2, 3, 4",
		"muli r1, r2, 3, 4",
		"shli r1, r2, 3, 4",
		"shri r1, r2, 3, 4",
		"load r1, 8(r2), r3",
		"store r3, 8(r2), r4",
		"flush 8(r2), r3",
		"beq r1, r2, ",
		"jmp @",
	}
	for _, src := range cases {
		if _, err := Assemble(src + "\nhalt"); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustAssemble("bogus")
}

func TestAssembleInstStringRoundTrip(t *testing.T) {
	// Program text printed by isa should reassemble to identical instructions.
	orig := NewBuilder().
		MovI(isa.R1, 7).
		AddI(isa.R2, isa.R1, 3).
		Load(isa.R3, isa.R2, 32).
		Store(isa.R2, 16, isa.R3).
		Sqrt(isa.R4, isa.R3).
		Beq(isa.R1, isa.R2, "end").
		Label("end").
		Halt().
		MustBuild()
	var sb strings.Builder
	for _, in := range orig.Insts {
		sb.WriteString(in.String())
		sb.WriteString("\n")
	}
	re, err := Assemble(sb.String())
	if err != nil {
		t.Fatalf("reassemble: %v\nsource:\n%s", err, sb.String())
	}
	if re.Len() != orig.Len() {
		t.Fatalf("length mismatch %d vs %d", re.Len(), orig.Len())
	}
	for i := range orig.Insts {
		if re.Insts[i] != orig.Insts[i] {
			t.Errorf("inst %d: %v != %v", i, re.Insts[i], orig.Insts[i])
		}
	}
}
