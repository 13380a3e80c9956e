package schemes

import (
	"strings"
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/uarch"
)

func testConfig(cores int) uarch.Config {
	cfg := uarch.DefaultConfig(cores)
	cfg.Cache = cache.Config{
		Cores:      cores,
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

// mustByName returns the named scheme, failing the test on an unknown name.
func mustByName(t *testing.T, name string) uarch.SpecPolicy {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// spectreProgram builds the canonical trained-bounds-check program whose
// final iteration transiently loads `probe+4*64` on the wrong path.
func spectreProgram() *isa.Program {
	return asm.MustAssemble(`
    movi r1, 131072       ; probe base
    movi r5, 16384        ; &N
    movi r9, 4
    store r9, 0(r5)       ; N = 4
    movi r2, 0            ; i
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

// runSpectre runs the canonical transient-load program under policy and
// reports whether the transient line ended up in the LLC, plus the core.
func runSpectre(t *testing.T, policy uarch.SpecPolicy) (leaked bool, c *uarch.Core) {
	t.Helper()
	p := spectreProgram()
	s := uarch.MustNewSystem(testConfig(1), mem.New())
	for pc := 0; pc < p.Len(); pc++ {
		s.Hierarchy().WarmInst(0, p.InstAddr(pc), cache.LevelL1)
	}
	if err := s.LoadProgram(0, p, policy); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	transient := int64(131072 + 4*64)
	return s.Hierarchy().LLCSlice(transient).Contains(transient), s.Core(0)
}

func TestUnsafeLeaksTransientLoad(t *testing.T) {
	leaked, c := runSpectre(t, mustByName(t, "unsafe"))
	if !leaked {
		t.Error("baseline should leak the transient line")
	}
	if c.Reg(isa.R2) != 5 {
		t.Errorf("r2 = %d, want 5", c.Reg(isa.R2))
	}
}

// Every invisible-speculation scheme must block the direct transient-load
// footprint — that is their core security claim, which the paper's attacks
// then bypass through interference rather than through this direct channel.
// (The fence defenses have their own test below.)
func TestAllSchemesBlockDirectTransientFootprint(t *testing.T) {
	for _, p := range table {
		if p.Name == "unsafe" || strings.HasPrefix(p.Name, "fence-") {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			leaked, c := runSpectre(t, p)
			if leaked {
				t.Errorf("%s: transient load left an LLC footprint", p.Name)
			}
			if c.Reg(isa.R2) != 5 {
				t.Errorf("%s: r2 = %d, want 5 (architectural breakage)", p.Name, c.Reg(isa.R2))
			}
		})
	}
}

func TestFenceDefensesBlockDirectTransientFootprint(t *testing.T) {
	for _, name := range []string{"fence-spectre", "fence-futuristic",
		"fence-spectre-ideal", "fence-futuristic-ideal"} {
		p := mustByName(t, name)
		t.Run(name, func(t *testing.T) {
			leaked, c := runSpectre(t, p)
			if leaked {
				t.Errorf("%s: transient load left an LLC footprint", name)
			}
			if c.Reg(isa.R2) != 5 {
				t.Errorf("%s: r2 = %d, want 5", name, c.Reg(isa.R2))
			}
		})
	}
}

// All schemes must preserve architectural semantics on an ordinary program.
func TestSchemesArchitecturallyTransparent(t *testing.T) {
	prog := asm.MustAssemble(`
    movi r1, 4096
    movi r2, 17
    store r2, 0(r1)
    movi r3, 0
    movi r4, 6
loop:
    load r5, 0(r1)
    add  r6, r6, r5
    addi r3, r3, 1
    blt  r3, r4, loop
    sqrt r7, r6
    halt`)
	for _, p := range table {
		s := uarch.MustNewSystem(testConfig(1), mem.New())
		if err := s.LoadProgram(0, prog, p); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(500_000); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		c := s.Core(0)
		if c.Reg(isa.R6) != 102 || c.Reg(isa.R7) != 10 {
			t.Errorf("%s: r6=%d r7=%d, want 102/10", p.Name, c.Reg(isa.R6), c.Reg(isa.R7))
		}
	}
}

func TestDoMDelaysSpeculativeMisses(t *testing.T) {
	_, c := runSpectre(t, mustByName(t, "dom"))
	if c.Stats().LoadsDelayed == 0 {
		t.Error("DoM should have delayed speculative misses")
	}
}

func TestInvisiSpecExposes(t *testing.T) {
	// A speculative load on the CORRECT path completes invisibly, becomes
	// safe when the branch resolves, and must then expose visibly.
	prog := asm.MustAssemble(`
    movi r1, 16384
    movi r2, 131072
    flush 0(r1)
    load r3, 0(r1)        ; slow: branch resolves late
    movi r4, 1
    blt  r0, r4, go       ; always taken; predictor warms up quickly
go:
    load r5, 0(r2)        ; speculative while older branch unresolved
    halt`)
	s := uarch.MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, prog, mustByName(t, "invisispec-spectre")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	probe := int64(131072)
	if !s.Hierarchy().LLCSlice(probe).Contains(probe) {
		t.Error("correct-path speculative load was never exposed")
	}
}

// MuonTrap is the one scheme with a private speculative buffer: an 8-set,
// 4-way filter with a 2-cycle hit (uarch tests cover how the core serves,
// fills and flushes it).
func TestMuonTrapFilter(t *testing.T) {
	for _, p := range table {
		want := cache.Geometry{}
		if p.Name == "muontrap" {
			want = cache.Geometry{Sets: 8, Ways: 4, Latency: 2}
		}
		if p.Filter != want {
			t.Errorf("%s: filter %+v, want %+v", p.Name, p.Filter, want)
		}
	}
}

func TestMuonTrapVisibleAccessesInCommitOrder(t *testing.T) {
	// Two loads that execute out of order (first has a slow address chain)
	// must still produce visible LLC accesses in program order under
	// MuonTrap, because installs happen at commit.
	prog := asm.MustAssemble(`
    movi r1, 16384
    movi r2, 131072
    movi r3, 135168
    flush 0(r1)
    load r4, 0(r1)        ; slow chain head
    and  r5, r4, r0       ; r5 = 0, but only after the slow load
    add  r6, r5, r2       ; addr A depends on slow chain
    load r7, 0(r6)        ; A (late issue)
    load r8, 0(r3)        ; B (early issue)
    halt`)
	s := uarch.MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, prog, mustByName(t, "muontrap")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatal(err)
	}
	var lines []int64
	for _, a := range s.Hierarchy().Log() {
		if a.Kind == cache.KindDataRead && (a.Line == 131072 || a.Line == 135168) {
			lines = append(lines, a.Line)
		}
	}
	if len(lines) < 2 || lines[0] != 131072 || lines[1] != 135168 {
		t.Errorf("visible order = %v, want program order (A then B)", lines)
	}
}

func TestFenceSpectreSlowerThanUnsafe(t *testing.T) {
	prog := asm.MustAssemble(`
    movi r1, 0
    movi r2, 50
loop:
    addi r3, r3, 7
    muli r4, r3, 3
    addi r1, r1, 1
    blt  r1, r2, loop
    halt`)
	run := func(p uarch.SpecPolicy) int64 {
		s := uarch.MustNewSystem(testConfig(1), mem.New())
		for pc := 0; pc < prog.Len(); pc++ {
			s.Hierarchy().WarmInst(0, prog.InstAddr(pc), cache.LevelL1)
		}
		if err := s.LoadProgram(0, prog, p); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		return s.Core(0).Stats().Cycles
	}
	unsafe := run(mustByName(t, "unsafe"))
	spectre := run(mustByName(t, "fence-spectre"))
	futuristic := run(mustByName(t, "fence-futuristic"))
	if spectre <= unsafe {
		t.Errorf("fence-spectre (%d) not slower than unsafe (%d)", spectre, unsafe)
	}
	if futuristic <= spectre {
		t.Errorf("fence-futuristic (%d) not slower than fence-spectre (%d)", futuristic, spectre)
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestShadowModels(t *testing.T) {
	cases := map[string]uarch.ShadowModel{
		"dom":                   uarch.ShadowSpectre,
		"dom-tso":               uarch.ShadowSpectreTSO,
		"invisispec-spectre":    uarch.ShadowSpectre,
		"invisispec-futuristic": uarch.ShadowFuturistic,
		"safespec-wfb":          uarch.ShadowSpectre,
		"safespec-wfc":          uarch.ShadowFuturistic,
		"muontrap":              uarch.ShadowFuturistic,
		"condspec":              uarch.ShadowFuturistic,
	}
	for name, want := range cases {
		if got := mustByName(t, name).Shadow; got != want {
			t.Errorf("%s shadow = %s, want %s", name, got, want)
		}
	}
}

func TestIFetchModes(t *testing.T) {
	visible := []string{"unsafe", "dom", "invisispec-spectre", "invisispec-futuristic"}
	for _, name := range visible {
		if mustByName(t, name).IFetch != uarch.IFetchVisible {
			t.Errorf("%s should leave the I-cache unprotected", name)
		}
	}
	protected := []string{"safespec-wfb", "muontrap", "condspec", "fence-spectre"}
	for _, name := range protected {
		if mustByName(t, name).IFetch == uarch.IFetchVisible {
			t.Errorf("%s should protect speculative I-fetch", name)
		}
	}
}

// TestPolicyValueReusable runs one program twice on fresh machines under
// the same policy value and requires the second run to match a run under a
// fresh ByName value counter for counter. A policy is data: no scheme —
// MuonTrap with its filter cache included — may carry state from one
// machine into the next.
func TestPolicyValueReusable(t *testing.T) {
	b := asm.NewBuilder()
	b.MovI(isa.R1, 16384)
	b.MovI(isa.R2, 131072)
	b.Flush(isa.R1, 0)
	b.Fence()
	b.Load(isa.R3, isa.R1, 0) // slow
	b.Load(isa.R4, isa.R2, 0) // a second cold line, speculative behind the first
	b.Sqrt(isa.R5, isa.R4)
	for i := 0; i < 11; i++ {
		b.Sqrt(isa.R5, isa.R5)
	}
	b.Halt()
	prog := b.MustBuild()
	run := func(p uarch.SpecPolicy) uarch.CoreStats {
		s := uarch.MustNewSystem(uarch.DefaultConfig(1), mem.New())
		for pc := 0; pc < prog.Len(); pc++ {
			s.Hierarchy().WarmInst(0, prog.InstAddr(pc), cache.LevelL1)
		}
		if err := s.LoadProgram(0, prog, p); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(500_000); err != nil {
			t.Fatal(err)
		}
		return s.Core(0).Stats()
	}
	for _, name := range Names() {
		shared := mustByName(t, name)
		run(shared)
		second := run(shared)
		if fresh := run(mustByName(t, name)); second != fresh {
			t.Errorf("%s: reused policy value ran differently:\n  reused: %+v\n  fresh:  %+v", name, second, fresh)
		}
	}
}
