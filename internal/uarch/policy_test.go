package uarch

import (
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/emu"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

var (
	// delayAllPolicy delays every speculative load (a DoM-like extreme) —
	// used to exercise the memDelayed path and safety re-issue.
	delayAllPolicy = SpecPolicy{Name: "delay-all", OnHit: ActDelay, OnMiss: ActDelay}
	// invisibleExposePolicy makes every speculative load invisible with an
	// expose (InvisiSpec-like).
	invisibleExposePolicy = SpecPolicy{Name: "invisible-expose", OnHit: ActInvisible, OnMiss: ActInvisible, ExposeOnSafe: true}
	// gateAllPolicy blocks issue of anything unsafe (fence-like).
	gateAllPolicy = SpecPolicy{Name: "gate-all", IssueOnlySafe: true}
)

func TestDelayedLoadReissuesWhenSafe(t *testing.T) {
	// A speculative load behind a slow branch gets delayed, then re-issues
	// once the branch resolves; the architectural result must be correct.
	p := asm.MustAssemble(`
    movi r1, 16384
    movi r2, 131072
    movi r9, 77
    store r9, 0(r2)
    flush 0(r1)
    fence
    load r3, 0(r1)        ; slow
    blt  r0, r3, go       ; unresolved until r3 returns; target==fallthrough
go:
    load r5, 0(r2)        ; speculative: delayed by the policy
    halt`)
	s := MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, p, delayAllPolicy); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Core(0).Reg(isa.R5); got != 77 {
		t.Errorf("r5 = %d, want 77", got)
	}
	if s.Core(0).Stats().LoadsDelayed == 0 {
		t.Error("no loads were delayed — policy not exercised")
	}
}

func TestInvisibleLoadExposesExactlyOnce(t *testing.T) {
	p := asm.MustAssemble(`
    movi r1, 16384
    movi r2, 131072
    flush 0(r1)
    fence
    load r3, 0(r1)        ; slow
    blt  r0, r3, go       ; unresolved until r3 returns
go:
    load r5, 0(r2)        ; invisible, exposes when the branch resolves
    halt`)
	s := MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, p, invisibleExposePolicy); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	st := s.Core(0).Stats()
	if st.LoadsInvisible == 0 {
		t.Error("no invisible loads")
	}
	if st.Exposes != 1 {
		t.Errorf("exposes = %d, want exactly 1", st.Exposes)
	}
	// The expose produced the visible fill.
	if !s.Hierarchy().LLCSlice(131072).Contains(131072) {
		t.Error("exposed line missing from LLC")
	}
}

func TestIssueGateCountsStalls(t *testing.T) {
	p := asm.MustAssemble(`
    movi r1, 16384
    flush 0(r1)
    fence
    load r3, 0(r1)
    movi r4, 1
    blt  r0, r3, go       ; unresolved until r3 returns
go:
    addi r5, r4, 1        ; gated until the branch resolves
    halt`)
	s := MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, p, gateAllPolicy); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	if s.Core(0).Stats().IssueGateStalls == 0 {
		t.Error("gate never engaged")
	}
	if s.Core(0).Reg(isa.R5) != 2 {
		t.Errorf("r5 = %d", s.Core(0).Reg(isa.R5))
	}
}

func TestBranchOracleEliminatesMispredictions(t *testing.T) {
	p := asm.MustAssemble(`
    movi r1, 0
    movi r2, 5
loop:
    addi r1, r1, 1
    blt  r1, r2, loop
    halt`)
	s := MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	// Outcomes: taken ×4, then not-taken.
	s.Core(0).SetBranchOracle([]bool{true, true, true, true, false})
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if sq := s.Core(0).Stats().Squashes; sq != 0 {
		t.Errorf("squashes = %d with a perfect oracle", sq)
	}
	if s.Core(0).Reg(isa.R1) != 5 {
		t.Errorf("r1 = %d", s.Core(0).Reg(isa.R1))
	}
}

func TestPausedCoreMakesNoProgress(t *testing.T) {
	p := asm.MustAssemble("movi r1, 1\nhalt")
	s := MustNewSystem(testConfig(2), mem.New())
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(1, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	s.Core(0).SetPaused(true)
	if err := s.RunUntilCoreHalts(1, 10_000); err != nil {
		t.Fatal(err)
	}
	if s.Core(0).Halted() || s.Core(0).Stats().Cycles != 0 {
		t.Error("paused core made progress")
	}
	s.Core(0).SetPaused(false)
	if err := s.RunUntilCoreHalts(0, 10_000); err != nil {
		t.Fatal(err)
	}
	if s.Core(0).Reg(isa.R1) != 1 {
		t.Error("resumed core did not execute")
	}
}

func TestRunUntilCoreHaltsTimeout(t *testing.T) {
	p := asm.MustAssemble("spin: jmp spin\nhalt")
	s := MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilCoreHalts(0, 500); err == nil {
		t.Error("expected timeout")
	}
}

func TestStoreForwardingAcrossDistance(t *testing.T) {
	// A store whose value arrives late must still forward to a younger
	// load of the same word, and never to a different word. The word
	// under the stores already holds 11 and its line is in L1, so a load
	// that skipped forwarding would read 11 long before the stores retire.
	// The youngest store's value, 77, comes from a flushed line, so the
	// load retries until the data arrives; an older store to the same
	// word holds 33 and must lose to the youngest.
	c := runProgram(t, `
    movi r1, 4096
    movi r2, 16384
    flush 0(r2)
    fence
    load r3, 0(r2)        ; slow producer of the store VALUE (77)
    movi r5, 33
    store r5, 8(r1)       ; older store to the same word, data ready
    store r3, 8(r1)       ; youngest: address known early, data late
    load r4, 8(r1)        ; must forward 77 from the youngest store
    movi r6, 9
    store r6, 16(r1)
    load r7, 24(r1)       ; different word: no forwarding
    halt`, func(s *System) {
		s.Memory().Write64(4096+8, 11)
		s.Memory().Write64(4096+24, 44)
		s.Memory().Write64(16384, 77)
		s.Hierarchy().Warm(0, 4096, cache.LevelL1)
	})
	if c.Reg(isa.R4) != 77 {
		t.Errorf("forwarded r4 = %d, want 77 (11: not forwarded, 33: older store won)", c.Reg(isa.R4))
	}
	if c.Reg(isa.R7) != 44 {
		t.Errorf("r7 = %d, want 44 from memory", c.Reg(isa.R7))
	}
}

func TestFlushAppliesAtRetireNotTransiently(t *testing.T) {
	// A wrong-path flush must have no effect: the line stays cached.
	p := asm.MustAssemble(`
    movi r1, 131072
    load r2, 0(r1)        ; warm the probe line
    fence
    movi r5, 16384
    flush 0(r5)
    fence
    load r6, 0(r5)        ; slow branch operand
    movi r4, 1
    blt  r6, r4, skip     ; taken (0 < 1); mistrained NOT taken below
skip:
    halt`)
	// Wrong path (fallthrough) would flush the probe line:
	p2 := asm.MustAssemble(`
    movi r1, 131072
    load r2, 0(r1)
    fence
    movi r5, 16384
    flush 0(r5)
    fence
    load r6, 0(r5)
    movi r4, 1
    blt  r6, r4, skip     ; actually taken; predictor starts not-taken
    flush 0(r1)           ; transient flush — must NOT persist
skip:
    halt`)
	_ = p
	s := MustNewSystem(testConfig(1), mem.New())
	warmCode(s, 0, p2)
	if err := s.LoadProgram(0, p2, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	if s.Core(0).Stats().Squashes == 0 {
		t.Fatal("branch did not mispredict — wrong-path flush never fetched")
	}
	if !s.Hierarchy().LLCSlice(131072).Contains(131072) {
		t.Error("transient flush persisted (clflush must not be transient)")
	}
}

// Differential property: every scheme (and defense) preserves architectural
// semantics on random programs — the strongest transparency guarantee.
func TestSchemesDifferentialOnRandomPrograms(t *testing.T) {
	for _, pol := range []SpecPolicy{delayAllPolicy, invisibleExposePolicy, gateAllPolicy} {
		for seed := uint64(200); seed < 206; seed++ {
			rng := cache.NewRand(seed)
			p := genProgram(rng)
			goldenMem := mem.New()
			want, err := emuRun(p, goldenMem)
			if err != nil {
				t.Fatal(err)
			}
			s := MustNewSystem(testConfig(1), mem.New())
			if err := s.LoadProgram(0, p, pol); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(5_000_000); err != nil {
				t.Fatalf("policy %s seed %d: %v", pol.Name, seed, err)
			}
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if s.Core(0).Reg(r) != want[r] {
					t.Fatalf("policy %s seed %d: %s = %d, want %d\n%s",
						pol.Name, seed, r, s.Core(0).Reg(r), want[r], p)
				}
			}
		}
	}
}

// emuRun executes p on the architectural emulator and returns final regs.
func emuRun(p *isa.Program, m *mem.Memory) ([isa.NumRegs]int64, error) {
	e := emu.New(p, m)
	res, err := e.Run()
	if err != nil {
		return [isa.NumRegs]int64{}, err
	}
	return res.Regs, nil
}
