package emu

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"specinterference/internal/asm"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

func run(t *testing.T, src string, setup func(*Machine, *mem.Memory)) *Result {
	t.Helper()
	p := asm.MustAssemble(src)
	m := mem.New()
	e := New(p, m)
	if setup != nil {
		setup(e, m)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
    movi r1, 6
    movi r2, 7
    mul  r3, r1, r2
    addi r4, r3, -2
    sub  r5, r4, r1
    div  r6, r3, r2
    sqrt r7, r3
    shli r8, r1, 4
    shri r9, r8, 2
    and  r10, r8, r9
    or   r11, r8, r9
    xor  r12, r8, r8
    halt`, nil)
	want := map[isa.Reg]int64{
		isa.R3: 42, isa.R4: 40, isa.R5: 34, isa.R6: 6, isa.R7: 6,
		isa.R8: 96, isa.R9: 24, isa.R10: 96 & 24, isa.R11: 96 | 24, isa.R12: 0,
	}
	for r, v := range want {
		if res.Regs[r] != v {
			t.Errorf("%s = %d, want %d", r, res.Regs[r], v)
		}
	}
	if !res.Halted {
		t.Error("should have halted")
	}
}

func TestLoadStore(t *testing.T) {
	res := run(t, `
    movi r1, 4096
    movi r2, 99
    store r2, 16(r1)
    load r3, 16(r1)
    halt`, nil)
	if res.Regs[isa.R3] != 99 {
		t.Errorf("r3 = %d, want 99", res.Regs[isa.R3])
	}
}

func TestLoop(t *testing.T) {
	res := run(t, `
    movi r1, 0
    movi r2, 10
loop:
    addi r1, r1, 3
    addi r3, r3, 1
    blt  r3, r2, loop
    halt`, nil)
	if res.Regs[isa.R1] != 30 {
		t.Errorf("r1 = %d, want 30", res.Regs[isa.R1])
	}
}

// recorder is a Hook that keeps every Step it sees, each with a copy of
// the register file (a hook may not keep the machine's own).
type recorder []Step

func (r *recorder) Observe(s Step) {
	regs := *s.Regs
	s.Regs = &regs
	*r = append(*r, s)
}

// checkSteps requires the hook to have seen exactly the instructions at
// pcs, in order, one Step each, carrying the program's own instructions.
func checkSteps(t *testing.T, p *isa.Program, steps []Step, res *Result, pcs ...int) {
	t.Helper()
	if len(steps) != res.InstCount {
		t.Errorf("hook saw %d steps, InstCount = %d", len(steps), res.InstCount)
	}
	if len(steps) != len(pcs) {
		t.Fatalf("hook saw %d steps, want %d", len(steps), len(pcs))
	}
	for i, s := range steps {
		if s.PC != pcs[i] || s.Inst != p.Insts[pcs[i]] {
			t.Errorf("step %d: pc %d %v, want pc %d %v", i, s.PC, s.Inst, pcs[i], p.Insts[pcs[i]])
		}
	}
}

func TestBranchRecording(t *testing.T) {
	p := asm.MustAssemble(`
    movi r1, 0
    movi r2, 3
loop:
    addi r1, r1, 1
    blt  r1, r2, loop
    halt`)
	e := New(p, mem.New())
	var steps recorder
	e.Hook = &steps
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkSteps(t, p, steps, res, 0, 1, 2, 3, 2, 3, 2, 3, 4)
	var taken []bool
	var atBranch []int64
	for _, s := range steps {
		if s.Inst.IsCondBranch() {
			taken = append(taken, s.Taken)
			atBranch = append(atBranch, s.Regs[isa.R1])
		} else if s.Taken || s.Addr != 0 {
			t.Errorf("pc %d: non-memory, non-branch step %+v", s.PC, s)
		}
	}
	if want := []bool{true, true, false}; !slices.Equal(taken, want) {
		t.Errorf("branch outcomes = %v, want %v", taken, want)
	}
	// The hook reads the register file as the branch left it.
	if want := []int64{1, 2, 3}; !slices.Equal(atBranch, want) {
		t.Errorf("r1 at each branch = %v, want %v", atBranch, want)
	}
}

func TestLoadRecording(t *testing.T) {
	p := asm.MustAssemble(`
    movi r1, 1024
    movi r4, 7
    store r4, 12(r1)
    load r2, 8(r1)
    load r3, 64(r1)
    halt`)
	e := New(p, mem.New())
	var steps recorder
	e.Hook = &steps
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkSteps(t, p, steps, res, 0, 1, 2, 3, 4, 5)
	var addrs, loaded []int64
	for _, s := range steps {
		addrs = append(addrs, s.Addr)
		if s.Inst.Op == isa.Load {
			loaded = append(loaded, s.Regs[s.Inst.Dst])
		}
	}
	if want := []int64{0, 0, 1036, 1032, 1088, 0}; !slices.Equal(addrs, want) {
		t.Errorf("step addresses = %v, want %v", addrs, want)
	}
	// A load step sees its destination already written: the word the
	// store at 1036 wrote, then untouched memory.
	if want := []int64{7, 0}; !slices.Equal(loaded, want) {
		t.Errorf("loaded values = %v, want %v", loaded, want)
	}
}

func TestInitialRegisters(t *testing.T) {
	p := asm.MustAssemble("addi r2, r1, 1\nhalt")
	e := New(p, mem.New())
	e.SetReg(isa.R1, 41)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[isa.R2] != 42 {
		t.Errorf("r2 = %d", res.Regs[isa.R2])
	}
}

func TestStepLimit(t *testing.T) {
	p := asm.MustAssemble("spin: jmp spin\nhalt")
	e := New(p, mem.New())
	e.MaxSteps = 100
	res, err := e.Run()
	if err == nil {
		t.Error("expected step-limit error")
	}
	if res.Halted {
		t.Error("should not report halted")
	}
	if res.InstCount != 100 {
		t.Errorf("InstCount = %d, want 100", res.InstCount)
	}
}

// TestStepLimitPrefixConsistency pins the step-limit contract Run
// documents: a deliberately non-halting program aborted at MaxSteps must
// yield errors.Is(err, ErrStepLimit), Halted == false, and a Result whose
// Regs are exactly the consistent prefix of the aborted run, with the Hook
// having seen exactly the executed instructions — so callers (the NoSpec
// oracle, the static leak detector) can reliably refuse to turn the prefix
// into a verdict.
func TestStepLimitPrefixConsistency(t *testing.T) {
	p := asm.MustAssemble(`
    movi r1, 65536
    movi r2, 0
  loop:
    load r3, 0(r1)
    addi r2, r2, 1
    blt r8, r2, loop
    halt`)
	m := mem.New()
	m.Write64(65536, 7)
	e := New(p, m)
	e.MaxSteps = 11 // 2 movi + 3 full iterations: load,addi,blt ×3
	var steps recorder
	e.Hook = &steps
	res, err := e.Run()
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want errors.Is(_, ErrStepLimit)", err)
	}
	if res == nil {
		t.Fatal("step-limit run must still return the prefix result")
	}
	if res.Halted {
		t.Error("should not report halted")
	}
	if res.InstCount != 11 {
		t.Errorf("InstCount = %d, want 11", res.InstCount)
	}
	if got := res.Regs[isa.R2]; got != 3 {
		t.Errorf("r2 = %d, want 3 completed iterations", got)
	}
	if got := res.Regs[isa.R3]; got != 7 {
		t.Errorf("r3 = %d, want 7 (last completed load)", got)
	}
	checkSteps(t, p, steps, res, 0, 1, 2, 3, 4, 2, 3, 4, 2, 3, 4)
	if last := steps[len(steps)-1]; *last.Regs != res.Regs {
		t.Errorf("registers after the last step %v differ from Result.Regs %v", *last.Regs, res.Regs)
	}
	for _, s := range steps {
		switch {
		case s.Inst.Op == isa.Load && s.Addr != 65536:
			t.Errorf("load at pc %d: addr %d, want 65536", s.PC, s.Addr)
		case s.Inst.IsCondBranch() && !s.Taken:
			t.Errorf("branch at pc %d not taken, want the taken loop branch", s.PC)
		}
	}
}

func TestDivByZero(t *testing.T) {
	res := run(t, "movi r1, 5\nmovi r2, 0\ndiv r3, r1, r2\nhalt", nil)
	if res.Regs[isa.R3] != 0 {
		t.Errorf("div by zero = %d, want 0", res.Regs[isa.R3])
	}
}

func TestRdCycleMonotone(t *testing.T) {
	res := run(t, "rdcycle r1\nnop\nnop\nrdcycle r2\nhalt", nil)
	if res.Regs[isa.R2] <= res.Regs[isa.R1] {
		t.Errorf("rdcycle not monotone: %d then %d", res.Regs[isa.R1], res.Regs[isa.R2])
	}
}

func TestFlushAndFenceAreArchitecturalNops(t *testing.T) {
	res := run(t, `
    movi r1, 2048
    movi r2, 5
    store r2, 0(r1)
    fence
    flush 0(r1)
    load r3, 0(r1)
    halt`, nil)
	if res.Regs[isa.R3] != 5 {
		t.Errorf("r3 = %d, want 5", res.Regs[isa.R3])
	}
}

func TestISqrt(t *testing.T) {
	cases := map[int64]int64{0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3,
		15: 3, 16: 4, 1 << 40: 1 << 20, -9: 3}
	for x, want := range cases {
		if got := ISqrt(x); got != want {
			t.Errorf("ISqrt(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestISqrtProperty(t *testing.T) {
	f := func(xRaw int32) bool {
		x := int64(xRaw)
		r := ISqrt(x)
		ax := x
		if ax < 0 {
			ax = -ax
		}
		return r >= 0 && r*r <= ax && (r+1)*(r+1) > ax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestISqrtMatchesFloat(t *testing.T) {
	for x := int64(0); x < 10000; x += 7 {
		if got, want := ISqrt(x), int64(math.Sqrt(float64(x))); got != want {
			t.Fatalf("ISqrt(%d) = %d, float says %d", x, got, want)
		}
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
		want bool
	}{
		{isa.Beq, 1, 1, true}, {isa.Beq, 1, 2, false},
		{isa.Bne, 1, 2, true}, {isa.Bne, 2, 2, false},
		{isa.Blt, -1, 0, true}, {isa.Blt, 0, 0, false},
		{isa.Bge, 0, 0, true}, {isa.Bge, -1, 0, false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a, c.b); got != c.want {
			t.Errorf("BranchTaken(%s, %d, %d) = %v", c.op, c.a, c.b, c.want)
		}
	}
}

// TestALUIgnoresUnusedRegisterFields: a register field the op does not
// use may hold any value and still pass Program.Validate, so Run must
// not read it.
func TestALUIgnoresUnusedRegisterFields(t *testing.T) {
	p := isa.NewProgram([]isa.Inst{
		{Op: isa.MovI, Dst: isa.R1, Src1: 40, Src2: 99, Imm: 5},
		{Op: isa.AddI, Dst: isa.R2, Src1: isa.R1, Src2: 200, Imm: 1},
		{Op: isa.Halt},
	})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := New(p, mem.New()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[isa.R2] != 6 {
		t.Errorf("r2 = %d, want 6", res.Regs[isa.R2])
	}
}

func TestBranchTakenPanicsOnNonBranch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BranchTaken(isa.Add, 0, 0)
}

func TestPointerChase(t *testing.T) {
	// Build a 4-node linked list in memory: 0x1000 -> 0x2000 -> 0x3000 -> 0.
	res := run(t, `
    movi r1, 4096
chase:
    load r1, 0(r1)
    bne  r1, r0, chase
    addi r2, r2, 1
    halt`, func(e *Machine, m *mem.Memory) {
		m.Write64(0x1000, 0x2000)
		m.Write64(0x2000, 0x3000)
		m.Write64(0x3000, 0)
	})
	if res.Regs[isa.R2] != 1 {
		t.Errorf("r2 = %d", res.Regs[isa.R2])
	}
}
