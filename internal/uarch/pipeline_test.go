package uarch

import (
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

var (
	// invisibleFetchPolicy models SafeSpec-like shadow I-structures.
	invisibleFetchPolicy = SpecPolicy{Name: "invisible-fetch", IFetch: IFetchInvisible}
	// delayFetchPolicy models CondSpec-like I-miss holdback.
	delayFetchPolicy = SpecPolicy{Name: "delay-fetch", IFetch: IFetchDelay}
	// stallFetchPolicy is the ideal-fence frontend behaviour.
	stallFetchPolicy = SpecPolicy{Name: "stall-fetch", IssueOnlySafe: true, StallFetchInShadow: true}
	// tsoPolicy delays speculative misses under the TSO shadow.
	tsoPolicy = SpecPolicy{Name: "tso", Shadow: ShadowSpectreTSO, OnHit: ActInvisible, OnMiss: ActDelay, TouchOnSafe: true}
	// filterPolicy serves speculative loads from a MuonTrap-like filter.
	filterPolicy = SpecPolicy{
		Name: "filter", Shadow: ShadowFuturistic, OnHit: ActInvisible, OnMiss: ActInvisible,
		ExposeOnSafe: true, Filter: cache.Geometry{Sets: 8, Ways: 4, Latency: 2},
	}
)

// wrongPathVictim builds a program whose mistrained branch fetches a
// distant wrong-path line, then halts. Returns program and wrong-path line.
func wrongPathVictim() (*isa.Program, int64, int) {
	b := asm.NewBuilder()
	b.MovI(isa.R5, 16384)
	b.Flush(isa.R5, 0)
	b.Fence()
	b.Load(isa.R6, isa.R5, 0) // slow branch operand
	branchPC := b.PC()
	b.Blt(isa.R0, isa.R6, "wrong") // 0 < 0: not taken; mistrained taken
	b.Jmp("done")
	// Pad so the wrong path sits on its own line.
	for b.PC()%8 != 0 {
		b.Nop()
	}
	b.Label("wrong")
	b.Nop()
	b.Label("spin")
	b.Jmp("spin")
	// Keep the correct-path done block off the wrong-path line.
	for b.PC()%8 != 0 {
		b.Nop()
	}
	b.Label("done")
	b.Halt()
	p := b.MustBuild()
	return p, mem.LineAddr(p.InstAddr(p.Symbols["wrong"])), branchPC
}

func runWrongPath(t *testing.T, policy SpecPolicy) (*System, int64) {
	t.Helper()
	p, wrongLine, branchPC := wrongPathVictim()
	s := MustNewSystem(testConfig(1), mem.New())
	for pc := 0; pc < p.Len(); pc++ {
		line := p.InstAddr(pc) &^ 63
		if line != wrongLine {
			s.Hierarchy().WarmInst(0, line, cache.LevelL1)
		}
	}
	s.Hierarchy().Flush(wrongLine)
	s.Core(0).Predictor().Train(branchPC, true, 4)
	if err := s.LoadProgram(0, p, policy); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	return s, wrongLine
}

func TestIFetchVisibleFillsWrongPathLine(t *testing.T) {
	s, wrongLine := runWrongPath(t, SpecPolicy{})
	if s.Core(0).Stats().Squashes == 0 {
		t.Fatal("no mis-speculation")
	}
	if !s.Hierarchy().LLCSlice(wrongLine).Contains(wrongLine) {
		t.Error("unprotected frontend should fill the wrong-path I-line")
	}
}

func TestIFetchInvisibleHidesWrongPathLine(t *testing.T) {
	s, wrongLine := runWrongPath(t, invisibleFetchPolicy)
	if s.Core(0).Stats().Squashes == 0 {
		t.Fatal("no mis-speculation")
	}
	if s.Hierarchy().LLCSlice(wrongLine).Contains(wrongLine) {
		t.Error("shadow I-structures must not fill the wrong-path line")
	}
}

func TestIFetchDelayHoldsWrongPathMiss(t *testing.T) {
	s, wrongLine := runWrongPath(t, delayFetchPolicy)
	if s.Core(0).Stats().Squashes == 0 {
		t.Fatal("no mis-speculation")
	}
	if s.Hierarchy().LLCSlice(wrongLine).Contains(wrongLine) {
		t.Error("delayed I-fetch must never issue the wrong-path miss")
	}
	if s.Core(0).Stats().FetchStallCycles == 0 {
		t.Error("expected fetch stalls while the miss was held")
	}
}

func TestStallFetchNeverMispredicts(t *testing.T) {
	s, wrongLine := runWrongPath(t, stallFetchPolicy)
	if sq := s.Core(0).Stats().Squashes; sq != 0 {
		t.Errorf("stall-fetch mode squashed %d times — it must never predict", sq)
	}
	if s.Hierarchy().LLCSlice(wrongLine).Contains(wrongLine) {
		t.Error("wrong-path line fetched despite stall-fetch")
	}
	// Despite never predicting, the mistrained predictor state is ignored
	// and the program still completes correctly.
	if !s.Core(0).Halted() {
		t.Error("did not halt")
	}
}

func TestFilterPolicyServesAndFlushes(t *testing.T) {
	// A speculative load to a line in the filter completes from it; an
	// invisible walk fills the filter when it completes.
	prog := asm.MustAssemble(`
    movi r1, 16384
    movi r2, 131072
    movi r3, 196608
    flush 0(r1)
    fence
    load r4, 0(r1)        ; slow
    blt  r0, r4, go       ; unresolved; target == fallthrough
go:
    load r5, 0(r2)        ; filter hit
    load r6, 0(r3)        ; filter miss → invisible walk → filter fill
    halt`)
	s := MustNewSystem(testConfig(1), mem.New())
	rec := &captureHook{}
	s.Core(0).SetTraceHook(rec)
	if err := s.LoadProgram(0, prog, filterPolicy); err != nil {
		t.Fatal(err)
	}
	s.Core(0).filter.Fill(131072)
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	for _, r := range rec.recs {
		if r.Inst.Op == isa.Load && r.Addr == 131072 && r.Level != cache.LevelL1 {
			t.Errorf("cold line loaded from %s, want the filter (L1 level)", r.Level)
		}
	}
	if !s.Core(0).filter.Contains(196608) {
		t.Error("invisible walk never filled the filter")
	}
}

func TestFilterPolicySquashNotification(t *testing.T) {
	p, _, branchPC := wrongPathVictim()
	s := MustNewSystem(testConfig(1), mem.New())
	for pc := 0; pc < p.Len(); pc++ {
		s.Hierarchy().WarmInst(0, p.InstAddr(pc)&^63, cache.LevelL1)
	}
	s.Core(0).Predictor().Train(branchPC, true, 4)
	if err := s.LoadProgram(0, p, filterPolicy); err != nil {
		t.Fatal(err)
	}
	s.Core(0).filter.Fill(1 << 40)
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	if s.Core(0).Stats().Squashes == 0 {
		t.Fatal("no squash")
	}
	if s.Core(0).filter.Contains(1 << 40) {
		t.Error("squash left the filter's speculative line in place")
	}
}

// TestFilterStartsEmptyPerLoad pins that a filter policy carries no state
// from one run into the next: LoadProgram resets the core's filter when
// the geometry matches and rebuilds it when it does not.
func TestFilterStartsEmptyPerLoad(t *testing.T) {
	s := MustNewSystem(testConfig(1), mem.New())
	c := s.Core(0)
	prog := asm.MustAssemble("halt")
	if err := s.LoadProgram(0, prog, filterPolicy); err != nil {
		t.Fatal(err)
	}
	first := c.filter
	first.Fill(131072)
	if err := s.LoadProgram(0, prog, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(0, prog, filterPolicy); err != nil {
		t.Fatal(err)
	}
	if c.filter != first || c.filter.Contains(131072) {
		t.Error("same geometry: want the held filter, reset")
	}
	wide := filterPolicy
	wide.Filter.Ways = 8
	if err := s.LoadProgram(0, prog, wide); err != nil {
		t.Fatal(err)
	}
	if c.filter.Ways() != 8 || c.filter.Contains(131072) {
		t.Errorf("new geometry: got a %d-way filter, want a fresh 8-way one", c.filter.Ways())
	}
}

func TestTSOShadowDelaysYoungerLoadBehindOlderLoad(t *testing.T) {
	// Under ShadowSpectreTSO a load is unsafe while any OLDER load is
	// incomplete, even without branches.
	prog := asm.MustAssemble(`
    movi r1, 16384
    movi r2, 131072
    flush 0(r1)
    fence
    load r3, 0(r1)        ; slow older load
    load r4, 0(r2)        ; younger: TSO-unsafe until r3 completes
    halt`)
	s := MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, prog, tsoPolicy); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	if s.Core(0).Stats().LoadsDelayed == 0 {
		t.Error("TSO shadow should have delayed the younger load")
	}
	// Visible order must be program order.
	var lines []int64
	for _, a := range s.Hierarchy().Log() {
		if a.Kind == cache.KindDataRead {
			lines = append(lines, a.Line)
		}
	}
	if len(lines) < 2 || lines[0] != 16384 || lines[1] != 131072 {
		t.Errorf("visible order = %#x", lines)
	}
}

func TestCoreAccessors(t *testing.T) {
	s := MustNewSystem(testConfig(2), mem.New())
	c := s.Core(1)
	if c.ID() != 1 {
		t.Error("ID")
	}
	if c.Policy() != (SpecPolicy{}) {
		t.Error("default policy is not the unprotected baseline")
	}
	c.SetReg(isa.R3, 42)
	if c.Reg(isa.R3) != 42 {
		t.Error("SetReg")
	}
	if s.NumCores() != 2 {
		t.Error("NumCores")
	}
	if s.Cycle() != 0 {
		t.Error("fresh cycle")
	}
	s.Step()
	if s.Cycle() != 1 {
		t.Error("Step")
	}
	var st CoreStats
	if st.IPC() != 0 {
		t.Error("IPC of zero stats")
	}
	st.Cycles, st.Retired = 10, 5
	if st.IPC() != 0.5 {
		t.Error("IPC")
	}
}

func TestMustNewSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	bad := DefaultConfig(1)
	bad.ROBSize = 0
	MustNewSystem(bad, mem.New())
}

// preemptProgram makes an older sqrt wait on a slow load while younger
// speculative sqrts occupy the non-pipelined unit — the advanced-defense
// preemption scenario.
func preemptProgram() *isa.Program {
	b := asm.NewBuilder()
	b.MovI(isa.R1, 16384)
	b.Flush(isa.R1, 0)
	b.Fence()
	b.Load(isa.R2, isa.R1, 0) // slow producer for the OLDER sqrt
	// An unresolved branch (target == fallthrough: never squashes) keeps
	// everything below speculative, so HoldRSUntilSafe keeps the younger
	// sqrts preemptable — the attack's configuration.
	b.Blt(isa.R0, isa.R2, "go")
	b.Label("go")
	b.Sqrt(isa.R3, isa.R2) // older sqrt, ready late
	b.MovI(isa.R4, 99)
	for i := 0; i < 30; i++ {
		b.Sqrt(isa.R5, isa.R4) // younger speculative sqrts keep the unit busy
	}
	b.Halt()
	return b.MustBuild()
}

func TestPreemptionOnNonPipelinedUnit(t *testing.T) {
	// With the advanced-defense knobs, an older sqrt preempts a younger
	// one occupying the non-pipelined unit: the older's issue-to-complete
	// time stays at one occupancy despite a busy unit.
	cfg := testConfig(1)
	cfg.HoldRSUntilSafe = true
	cfg.AgePriorityArb = true
	p := preemptProgram()
	s := MustNewSystem(cfg, mem.New())
	warmCode(s, 0, p)
	rec := &captureHook{}
	s.Core(0).SetTraceHook(rec)
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	var olderWait int64 = -1
	var loadDone int64
	for _, r := range rec.recs {
		if r.Inst.Op == isa.Load {
			loadDone = r.Complete
		}
		if r.Inst.Op == isa.Sqrt && r.PC == 5 {
			olderWait = r.Issue
		}
	}
	if olderWait < 0 {
		t.Fatal("older sqrt not traced")
	}
	// With preemption the older sqrt issues within ~2 cycles of readiness
	// instead of waiting out a 12-cycle occupancy.
	if olderWait > loadDone+3 {
		t.Errorf("older sqrt issued at %d, ready at %d: preemption failed", olderWait, loadDone)
	}
}

// TestPreemptedEntryIssuesOnLaterPort has an older add preempt a younger
// sqrt on a port serving both classes, while a later port serves only
// sqrts and no other sqrt is ready: the sqrt class has nothing to issue
// when the stage starts, and the preempted sqrt must still issue on the
// later port in the cycle it was preempted.
func TestPreemptedEntryIssuesOnLaterPort(t *testing.T) {
	cfg := testConfig(1)
	cfg.HoldRSUntilSafe = true
	cfg.AgePriorityArb = true
	cfg.Ports = []PortConfig{
		{Classes: []isa.Class{isa.ClassALU, isa.ClassSqrt}},
		{Classes: []isa.Class{isa.ClassSqrt}},
		{Classes: []isa.Class{isa.ClassMul}},
		{Classes: []isa.Class{isa.ClassLoad}},
		{Classes: []isa.Class{isa.ClassStore}},
		{Classes: []isa.Class{isa.ClassBranch}},
	}
	b := asm.NewBuilder()
	b.MovI(isa.R1, 16384)
	b.Flush(isa.R1, 0)
	b.Fence()
	b.Load(isa.R2, isa.R1, 0) // slow producer for the add
	b.Blt(isa.R0, isa.R2, "go")
	b.Label("go")
	b.Add(isa.R3, isa.R2, isa.R2) // older than every sqrt, ready late
	b.MovI(isa.R5, 99)
	for i := 0; i < 30; i++ {
		b.Sqrt(isa.R5, isa.R5) // a chain: one sqrt at a time, on port 0
	}
	b.Halt()
	p := b.MustBuild()
	s := MustNewSystem(cfg, mem.New())
	warmCode(s, 0, p)
	rec := &captureHook{}
	s.Core(0).SetTraceHook(rec)
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	addIssue := int64(-1)
	for _, r := range rec.recs {
		if r.Inst.Op == isa.Add {
			addIssue = r.Issue
		}
	}
	for _, r := range rec.recs {
		if r.Inst.Op == isa.Sqrt && r.Issue == addIssue {
			return
		}
	}
	t.Errorf("no sqrt issued in cycle %d, when the add issued on port 0", addIssue)
}
