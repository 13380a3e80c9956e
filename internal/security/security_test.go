package security

import (
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
)

func testConfig() uarch.Config {
	cfg := uarch.DefaultConfig(1)
	cfg.Cache = cache.Config{
		Cores:      1,
		L1I:        cache.Geometry{Sets: 16, Ways: 4, Latency: 1},
		L1D:        cache.Geometry{Sets: 16, Ways: 4, Latency: 4},
		L2:         cache.Geometry{Sets: 64, Ways: 4, Latency: 12},
		LLC:        cache.Geometry{Sets: 256, Ways: 8, Latency: 40},
		LLCSlices:  1,
		L1Policy:   cache.PolicyLRU,
		LLCPolicy:  cache.PolicyQLRU,
		MemLatency: 150,
		DMSHRs:     4,
		Seed:       1,
	}
	return cfg
}

// spectreVictim is the trained-bounds-check program whose final iteration
// transiently loads a probe line on the wrong path.
func spectreVictim() *isa.Program {
	return asm.MustAssemble(`
    movi r1, 131072
    movi r5, 16384
    movi r9, 4
    store r9, 0(r5)
    movi r2, 0
    movi r8, 5
loop:
    flush 0(r5)
    fence               ; clflush is weakly ordered: fence before reload
    load r6, 0(r5)
    blt  r2, r6, in
    jmp  next
in:
    shli r10, r2, 6
    add  r10, r10, r1
    load r7, 0(r10)
next:
    addi r2, r2, 1
    blt  r2, r8, loop
    halt`)
}

// check runs the §5.1 checker on prog under the named scheme.
func check(t *testing.T, scheme string, prog *isa.Program) *Report {
	t.Helper()
	policy, err := schemes.ByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(RunSpec{
		Prog:   prog,
		Policy: policy,
		Config: testConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestUnsafeViolatesDefinition(t *testing.T) {
	rep := check(t, "unsafe", spectreVictim())
	if rep.Mispredicts == 0 {
		t.Fatal("vacuous check: no mispredictions")
	}
	if rep.Holds {
		t.Error("the unprotected baseline must violate ideal invisible speculation")
	}
	if rep.SetHolds {
		t.Error("the baseline leaks a transient footprint: even the access SET must differ")
	}
	if rep.Diff() == "" {
		t.Error("diff rendering empty")
	}
}

func TestIdealFenceSatisfiesDefinition(t *testing.T) {
	for _, name := range []string{"fence-spectre-ideal", "fence-futuristic-ideal"} {
		rep := check(t, name, spectreVictim())
		if !rep.Holds {
			t.Errorf("%s must satisfy ideal invisible speculation:\n%s", name, rep.Diff())
		}
	}
}

func TestFenceBlocksTheSpectreLeak(t *testing.T) {
	// The non-ideal fence defense blocks the data-side leak on this victim
	// too: wrong-path loads never issue, and wrong-path fetch misses are
	// held back.
	rep := check(t, "fence-spectre", spectreVictim())
	if !rep.Holds {
		t.Errorf("fence-spectre leaked on the Spectre victim:\n%s", rep.Diff())
	}
}

func TestInvisibleSchemesHideDirectVictim(t *testing.T) {
	// Invisible-speculation schemes block the DIRECT transient channel:
	// on this (serialized, flush-fenced) Spectre victim the visible access
	// pattern is fully speculation-invariant. The attacks in internal/core
	// and TestDoMViolatesOnInterferenceShapedProgram below show where this
	// guarantee ends: overlapped bound-to-retire accesses whose ORDER the
	// gadget perturbs.
	for _, name := range []string{"dom", "invisispec-spectre", "muontrap"} {
		rep := check(t, name, spectreVictim())
		if !rep.SetHolds {
			t.Errorf("%s leaked a footprint (set inequality):\n%s", name, rep.Diff())
		}
		if !rep.Holds {
			t.Errorf("%s altered the access order on the serialized victim:\n%s", name, rep.Diff())
		}
	}
}

func TestDoMViolatesOnInterferenceShapedProgram(t *testing.T) {
	rep := interferenceCheck(t)
	if rep.Mispredicts == 0 {
		t.Fatal("vacuous: branch predicted correctly")
	}
	if rep.Holds {
		t.Error("DoM should violate the definition under speculative interference")
	}
	if !rep.SetHolds {
		t.Error("the violation should be pure reordering: the access SET must match " +
			"(DoM hides the footprint; the interference leaks through order alone)")
	}
}

// interferenceCheck builds the interference-shaped DoM program and runs
// the checker (shared by the test and debugging).
func interferenceCheck(t *testing.T) *Report {
	t.Helper()

	// A single-program VD-VD interference sender: two bound-to-retire
	// loads whose order flips with wrong-path EU contention. DoM permits
	// the reorder, so C(E) != C(NoSpec(E)) — the paper's central claim,
	// expressed in the §5.1 vocabulary.
	b := asm.NewBuilder()
	b.MovI(isa.R1, 0x100040)   // &N (flushed via PrepareSystem)
	b.MovI(isa.R2, 0x140000)   // A
	b.MovI(isa.R3, 0x180000)   // B (same LLC set as A: 256 sets, both set 0)
	b.MovI(isa.R4, 0x130000)   // S (transmitter target, warm)
	b.MovI(isa.R8, 0)          // zero
	b.Load(isa.R10, isa.R1, 0) // N: slow — the speculation window
	// z-chain (arithmetic).
	b.MulI(isa.R11, isa.R8, 1)
	for i := 0; i < 11; i++ {
		b.MulI(isa.R11, isa.R11, 1)
	}
	// f(z) -> A.
	b.Sqrt(isa.R12, isa.R11)
	for i := 1; i < 10; i++ {
		b.Sqrt(isa.R12, isa.R12)
	}
	b.And(isa.R13, isa.R12, isa.R8)
	b.Add(isa.R13, isa.R13, isa.R2)
	b.Load(isa.R14, isa.R13, 0) // A
	// g(z) -> B.
	b.MulI(isa.R15, isa.R11, 1)
	for i := 1; i < 35; i++ {
		b.MulI(isa.R15, isa.R15, 1)
	}
	b.And(isa.R16, isa.R15, isa.R8)
	b.Add(isa.R16, isa.R16, isa.R3)
	b.Load(isa.R17, isa.R16, 0)      // B
	b.Blt(isa.R8, isa.R10, "gadget") // 0 < N(=0): not taken, mistrained taken
	b.Jmp("done")
	b.Label("gadget")
	b.Load(isa.R25, isa.R4, 0) // transmitter (warm L1: returns fast)
	for i := 0; i < 40; i++ {
		b.Sqrt(isa.R26, isa.R25)
	}
	b.Label("spin")
	b.Jmp("spin")
	b.Label("done")
	b.Halt()
	prog := b.MustBuild()

	dom, err := schemes.ByName("dom")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(RunSpec{
		Prog:   prog,
		Policy: dom,
		Config: testConfig(),
		PrepareSystem: func(sys *uarch.System) error {
			h := sys.Hierarchy()
			for pc := 0; pc < prog.Len(); pc++ {
				h.WarmInst(0, prog.InstAddr(pc), cache.LevelL1)
			}
			h.Flush(0x100040)
			h.Flush(0x140000)
			h.Flush(0x180000)
			h.Warm(0, 0x130000, cache.LevelL1)
			// Mistrain the bounds check toward taken.
			sys.Core(0).Predictor().Train(prog.Symbols["gadget"]-2, true, 4)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCheckValidation(t *testing.T) {
	if _, err := Check(RunSpec{}); err == nil {
		t.Error("nil program accepted")
	}
	bad := asm.NewBuilder().Jmp("x").Label("x").Halt().MustBuild()
	bad.Insts[0].Target = 99
	if _, err := Check(RunSpec{Prog: bad, Config: testConfig()}); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestPatternOf(t *testing.T) {
	log := []cache.VisibleAccess{
		{Core: 0, Line: 0x40, Kind: cache.KindDataRead},
		{Core: 1, Line: 0x80, Kind: cache.KindInstFetch},
	}
	p := PatternOf(log)
	if len(p) != 2 || p[0] != "c0:read:0x40" || p[1] != "c1:fetch:0x80" {
		t.Errorf("pattern = %v", p)
	}
}

func TestReportDiffWhenHolds(t *testing.T) {
	r := &Report{Holds: true}
	if r.Diff() != "C(E) = C(NoSpec(E))" {
		t.Error("holds diff")
	}
}
