package uarch

import (
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/emu"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// testConfig returns a small fast config for unit tests.
func testConfig(cores int) Config {
	cfg := DefaultConfig(cores)
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

// warmCode preloads every instruction line of p into core's L1I so tests
// measure pipeline behaviour rather than cold instruction misses.
func warmCode(s *System, core int, p *isa.Program) {
	for pc := 0; pc < p.Len(); pc++ {
		s.Hierarchy().WarmInst(core, p.InstAddr(pc), cache.LevelL1)
	}
}

// runProgram runs src on a fresh single-core system (with a warm I-cache)
// and returns the core.
func runProgram(t *testing.T, src string, setup func(*System)) *Core {
	t.Helper()
	p := asm.MustAssemble(src)
	s := MustNewSystem(testConfig(1), mem.New())
	warmCode(s, 0, p)
	if setup != nil {
		setup(s)
	}
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(200_000); err != nil {
		t.Fatal(err)
	}
	return s.Core(0)
}

func TestSimpleArithmetic(t *testing.T) {
	c := runProgram(t, `
    movi r1, 6
    movi r2, 7
    mul  r3, r1, r2
    sqrt r4, r3
    div  r5, r3, r2
    halt`, nil)
	if c.Reg(isa.R3) != 42 || c.Reg(isa.R4) != 6 || c.Reg(isa.R5) != 6 {
		t.Errorf("r3=%d r4=%d r5=%d", c.Reg(isa.R3), c.Reg(isa.R4), c.Reg(isa.R5))
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c := runProgram(t, `
    movi r1, 4096
    movi r2, 1234
    store r2, 8(r1)
    load r3, 8(r1)
    halt`, nil)
	if c.Reg(isa.R3) != 1234 {
		t.Errorf("r3 = %d (store-to-load forwarding broken?)", c.Reg(isa.R3))
	}
}

func TestStoreVisibleAfterRetire(t *testing.T) {
	p := asm.MustAssemble(`
    movi r1, 4096
    movi r2, 55
    store r2, 0(r1)
    halt`)
	s := MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Memory().Read64(4096); got != 55 {
		t.Errorf("memory = %d, want 55", got)
	}
}

func TestLoop(t *testing.T) {
	c := runProgram(t, `
    movi r1, 0
    movi r2, 20
loop:
    addi r1, r1, 3
    addi r3, r3, 1
    blt  r3, r2, loop
    halt`, nil)
	if c.Reg(isa.R1) != 60 {
		t.Errorf("r1 = %d, want 60", c.Reg(isa.R1))
	}
	// The backward branch should quickly train to taken; most iterations
	// must not squash.
	if sq := c.Stats().Squashes; sq > 6 {
		t.Errorf("squashes = %d, want few (predictor should learn)", sq)
	}
}

func TestMispredictionSquashAndRecovery(t *testing.T) {
	// Train the branch taken, then flip the condition: the wrong path
	// writes r5; the squash must discard it.
	c := runProgram(t, `
    movi r4, 0
    movi r5, 0
    movi r6, 10
    movi r7, 0
loop:
    blt r7, r6, body      ; taken 10 times, then falls through
    jmp end
body:
    addi r7, r7, 1
    jmp loop
end:
    halt`, nil)
	if c.Reg(isa.R7) != 10 {
		t.Errorf("r7 = %d, want 10", c.Reg(isa.R7))
	}
	if c.Stats().Squashes == 0 {
		t.Error("expected at least one squash (the final not-taken)")
	}
}

func TestWrongPathWritesDiscarded(t *testing.T) {
	// r2 < r1 is false, but the predictor can be trained taken by the loop
	// structure; even so, the wrong-path movi to r9 must never retire.
	c := runProgram(t, `
    movi r1, 5
    movi r2, 9
    movi r9, 111
    blt r2, r1, wrong
    jmp ok
wrong:
    movi r9, 222
ok:
    halt`, nil)
	if c.Reg(isa.R9) != 111 {
		t.Errorf("r9 = %d, wrong-path write retired", c.Reg(isa.R9))
	}
}

func TestSpeculativeLoadLeavesCacheFootprint(t *testing.T) {
	// The unprotected baseline lets a wrong-path load fill the cache: the
	// primitive Spectre relies on. A bounds check `i < N` runs in a loop:
	// iterations 0..3 take the branch and train the predictor; iteration 4
	// (i == N == 4) mispredicts taken because N's line is flushed each
	// round, and the wrong path loads probe+4*64.
	probe := int64(0x20000)
	src := `
    movi r1, 131072       ; probe base 0x20000
    movi r5, 16384        ; &N
    movi r9, 4
    store r9, 0(r5)       ; N = 4
    movi r2, 0            ; i
    movi r8, 5            ; loop bound
loop:
    flush 0(r5)
    fence               ; clflush is weakly ordered: fence before reload
    load r6, 0(r5)        ; N, slow every iteration
    blt  r2, r6, in       ; i < N: mispredicts at i == 4
    jmp  next
in:
    shli r10, r2, 6
    add  r10, r10, r1
    load r7, 0(r10)       ; accesses probe + i*64
next:
    addi r2, r2, 1
    blt  r2, r8, loop
    halt`
	p := asm.MustAssemble(src)
	s := MustNewSystem(testConfig(1), mem.New())
	warmCode(s, 0, p)
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(200_000); err != nil {
		t.Fatal(err)
	}
	if c := s.Core(0); c.Stats().Squashes == 0 {
		t.Fatal("no squash: the attack branch did not mispredict")
	}
	transient := probe + 4*64
	if !s.Hierarchy().LLCSlice(transient).Contains(transient) {
		t.Error("transient load left no LLC footprint on the unsafe baseline")
	}
}

func TestNonPipelinedSqrtSerializes(t *testing.T) {
	// Two independent sqrts share the single non-pipelined unit: the second
	// must wait the full latency. Two independent adds on two ALU ports
	// finish essentially together.
	cSqrt := runProgram(t, `
    movi r1, 100
    movi r2, 200
    sqrt r3, r1
    sqrt r4, r2
    halt`, nil)
	cAdd := runProgram(t, `
    movi r1, 100
    movi r2, 200
    addi r3, r1, 1
    addi r4, r2, 1
    halt`, nil)
	dSqrt := cSqrt.Stats().Cycles
	dAdd := cAdd.Stats().Cycles
	if dSqrt < dAdd+int64(isa.LatSqrt)-2 {
		t.Errorf("sqrt pair = %d cycles, add pair = %d: non-pipelined unit not serializing", dSqrt, dAdd)
	}
}

func TestAgeOrderedIssuePrefersOlder(t *testing.T) {
	// An older sqrt (dependent on a slow load) and a pool of younger,
	// immediately-ready sqrts contend for the single non-pipelined unit.
	// While the older is not ready the youngers stream through; the moment
	// it becomes ready it must win the next free slot, ahead of remaining
	// youngers. This is the arbitration behaviour the GDNPEU cascade needs.
	const youngers = 30
	b := asm.NewBuilder()
	b.MovI(isa.R1, 8192)
	b.Load(isa.R2, isa.R1, 0) // cold: ~200 cycles
	b.Sqrt(isa.R3, isa.R2)    // OLDER sqrt at pc=2, ready late
	b.MovI(isa.R4, 99)
	for i := 0; i < youngers; i++ {
		b.Sqrt(isa.R5, isa.R4)
	}
	b.Halt()
	p := b.MustBuild()
	s := MustNewSystem(testConfig(1), mem.New())
	warmCode(s, 0, p)
	rec := &captureHook{}
	s.Core(0).SetTraceHook(rec)
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	olderIssue := int64(-1)
	var youngerIssues []int64
	for _, r := range rec.recs {
		if r.Inst.Op != isa.Sqrt {
			continue
		}
		if r.PC == 2 {
			olderIssue = r.Issue
		} else {
			youngerIssues = append(youngerIssues, r.Issue)
		}
	}
	if olderIssue < 0 || len(youngerIssues) != youngers {
		t.Fatalf("trace incomplete: older=%d youngers=%d", olderIssue, len(youngerIssues))
	}
	before, after := 0, 0
	for _, y := range youngerIssues {
		if y < olderIssue {
			before++
		} else {
			after++
		}
	}
	if before == 0 {
		t.Error("no younger sqrt issued before the older was ready — load not slow enough")
	}
	if after == 0 {
		t.Error("age order violated: ready older sqrt never outranked pending youngers")
	}
	// Once ready (load completes ~cycle 210), the older must grab the very
	// next free slot: its issue must precede every still-pending younger by
	// coming right after load completion, not after the youngers drain.
	loadDone := int64(-1)
	for _, r := range rec.recs {
		if r.Inst.Op == isa.Load {
			loadDone = r.Complete
		}
	}
	if olderIssue > loadDone+int64(isa.LatSqrt)+2 {
		t.Errorf("older sqrt issued at %d, load done at %d: waited more than one unit occupancy", olderIssue, loadDone)
	}
}

func TestRSBackPressureStallsFrontend(t *testing.T) {
	// A long chain of adds dependent on a cold load fills the RS and must
	// stall dispatch and then fetch (the GIRS precondition).
	cfg := testConfig(1)
	cfg.RSSize = 16
	cfg.FetchBufSize = 4
	b := asm.NewBuilder()
	b.MovI(isa.R1, 8192)
	b.Load(isa.R2, isa.R1, 0) // cold: ~200 cycles
	for i := 0; i < 40; i++ {
		b.Add(isa.R3, isa.R3, isa.R2) // dependent chain, cannot issue
	}
	b.Halt()
	p := b.MustBuild()
	s := MustNewSystem(cfg, mem.New())
	warmCode(s, 0, p)
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	st := s.Core(0).Stats()
	if st.RSFullStallCycles == 0 {
		t.Error("expected RS-full dispatch stalls")
	}
	if st.FetchStallCycles == 0 {
		t.Error("expected fetch stalls from back-pressure")
	}
}

func TestMSHRLimitSerializesMisses(t *testing.T) {
	// With one MSHR, two cold loads to different lines serialize; with
	// four they overlap.
	build := func() *isa.Program {
		return asm.MustAssemble(`
    movi r1, 8192
    movi r2, 16384
    load r3, 0(r1)
    load r4, 0(r2)
    halt`)
	}
	run := func(mshrs int) int64 {
		cfg := testConfig(1)
		cfg.Cache.DMSHRs = mshrs
		s := MustNewSystem(cfg, mem.New())
		if err := s.LoadProgram(0, build(), SpecPolicy{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(100_000); err != nil {
			t.Fatal(err)
		}
		return s.Core(0).Stats().Cycles
	}
	serial := run(1)
	parallel := run(4)
	if serial < parallel+100 {
		t.Errorf("1 MSHR: %d cycles, 4 MSHRs: %d — misses did not serialize", serial, parallel)
	}
}

func TestCDBWidthContention(t *testing.T) {
	// Many independent 1-cycle adds completing together: CDB width 1 must
	// take longer than width 4.
	build := func() *isa.Program {
		b := asm.NewBuilder()
		b.MovI(isa.R1, 1)
		for i := 0; i < 24; i++ {
			b.AddI(isa.Reg(2+(i%8)), isa.R1, int64(i))
		}
		b.Halt()
		return b.MustBuild()
	}
	run := func(w int) int64 {
		cfg := testConfig(1)
		cfg.CDBWidth = w
		s := MustNewSystem(cfg, mem.New())
		p := build()
		warmCode(s, 0, p)
		if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(100_000); err != nil {
			t.Fatal(err)
		}
		return s.Core(0).Stats().Cycles
	}
	narrow := run(1)
	wide := run(4)
	if narrow <= wide {
		t.Errorf("CDB width 1 = %d cycles, width 4 = %d — no contention modeled", narrow, wide)
	}
}

func TestFenceBlocksYoungerIssue(t *testing.T) {
	// rdcycle around a fence + slow load: the second rdcycle must not issue
	// until the fence retires, which needs the load completed.
	c := runProgram(t, `
    movi r1, 8192
    rdcycle r2
    load r3, 0(r1)       ; slow
    fence
    rdcycle r4
    halt`, nil)
	delta := c.Reg(isa.R4) - c.Reg(isa.R2)
	if delta < 150 {
		t.Errorf("rdcycle delta across fence+miss = %d, want >= memory latency", delta)
	}
}

func TestRdCycleWithoutFenceOverlaps(t *testing.T) {
	c := runProgram(t, `
    movi r1, 8192
    rdcycle r2
    load r3, 0(r1)
    rdcycle r4
    halt`, nil)
	delta := c.Reg(isa.R4) - c.Reg(isa.R2)
	if delta > 50 {
		t.Errorf("independent rdcycle waited for the load: delta = %d", delta)
	}
}

func TestFlushForcesMiss(t *testing.T) {
	c := runProgram(t, `
    movi r1, 8192
    load r2, 0(r1)       ; warm the line
    fence                ; drain the warming miss
    rdcycle r3
    load r4, 0(r1)       ; hit
    fence
    rdcycle r5
    flush 0(r1)
    fence
    rdcycle r6
    load r7, 0(r1)       ; miss again
    fence
    rdcycle r8
    halt`, nil)
	hit := c.Reg(isa.R5) - c.Reg(isa.R3)
	miss := c.Reg(isa.R8) - c.Reg(isa.R6)
	if miss < hit+100 {
		t.Errorf("hit=%d miss=%d: flush did not evict", hit, miss)
	}
}

func TestVisibleLogOrderFollowsIssueOrder(t *testing.T) {
	p := asm.MustAssemble(`
    movi r1, 8192
    movi r2, 16384
    load r3, 0(r1)
    fence
    load r4, 0(r2)
    halt`)
	s := MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	var dataLines []int64
	for _, a := range s.Hierarchy().Log() {
		if a.Kind == cache.KindDataRead {
			dataLines = append(dataLines, a.Line)
		}
	}
	if len(dataLines) != 2 || dataLines[0] != 8192 || dataLines[1] != 16384 {
		t.Errorf("visible data log = %#v", dataLines)
	}
}

func TestTraceHookRecords(t *testing.T) {
	p := asm.MustAssemble("movi r1, 1\naddi r2, r1, 2\nhalt")
	s := MustNewSystem(testConfig(1), mem.New())
	rec := &captureHook{}
	s.Core(0).SetTraceHook(rec)
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if len(rec.recs) != 3 {
		t.Fatalf("records = %d, want 3", len(rec.recs))
	}
	r := rec.recs[1]
	if r.Inst.Op != isa.AddI || r.Issue < r.Dispatch || r.Complete < r.Issue || r.Retire < r.Complete {
		t.Errorf("record ordering broken: %+v", r)
	}
}

type captureHook struct{ recs []InstRecord }

func (h *captureHook) Record(_ int, r InstRecord) { h.recs = append(h.recs, r) }

func TestMultiCoreIndependentPrograms(t *testing.T) {
	s := MustNewSystem(testConfig(2), mem.New())
	p0 := asm.MustAssemble("movi r1, 10\nmuli r2, r1, 3\nhalt")
	p1 := asm.MustAssemble("movi r1, 7\naddi r2, r1, 1\nhalt")
	if err := s.LoadProgram(0, p0, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgram(1, p1, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if s.Core(0).Reg(isa.R2) != 30 || s.Core(1).Reg(isa.R2) != 8 {
		t.Errorf("r2 = %d / %d", s.Core(0).Reg(isa.R2), s.Core(1).Reg(isa.R2))
	}
}

func TestCrossCoreLLCSharing(t *testing.T) {
	s := MustNewSystem(testConfig(2), mem.New())
	// Core 0 warms a line; core 1's load should then hit the LLC (fast),
	// versus a cold line (slow).
	warm := asm.MustAssemble("movi r1, 8192\nload r2, 0(r1)\nhalt")
	if err := s.LoadProgram(0, warm, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	probe := asm.MustAssemble(`
    movi r1, 8192
    movi r2, 65536
    rdcycle r3
    load r4, 0(r1)       ; LLC hit (warmed by core 0)
    fence
    rdcycle r5
    load r6, 0(r2)       ; cold miss
    fence
    rdcycle r7
    halt`)
	if err := s.LoadProgram(1, probe, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	c := s.Core(1)
	shared := c.Reg(isa.R5) - c.Reg(isa.R3)
	cold := c.Reg(isa.R7) - c.Reg(isa.R5)
	if cold < shared+80 {
		t.Errorf("shared=%d cold=%d: LLC sharing not observable", shared, cold)
	}
}

func TestHaltOnWrongPathRecovered(t *testing.T) {
	// The wrong path contains a halt; the squash must revive fetch.
	c := runProgram(t, `
    movi r1, 3
    movi r2, 0
loop:
    addi r2, r2, 1
    blt  r2, r1, loop
    jmp good
    halt                  ; wrong-path halt (fallthrough of jmp never runs)
good:
    movi r9, 77
    halt`, nil)
	if c.Reg(isa.R9) != 77 {
		t.Errorf("r9 = %d: machine died on a wrong-path halt", c.Reg(isa.R9))
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(1)
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	bad = DefaultConfig(1)
	bad.Ports = []PortConfig{{Classes: []isa.Class{isa.ClassALU}}}
	if err := bad.Validate(); err == nil {
		t.Error("missing port classes accepted")
	}
	bad = DefaultConfig(1)
	bad.Ports = nil
	if err := bad.Validate(); err == nil {
		t.Error("no ports accepted")
	}
	bad = DefaultConfig(1)
	bad.RedirectPenalty = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative redirect penalty accepted")
	}
}

func TestNewSystemErrors(t *testing.T) {
	if _, err := NewSystem(DefaultConfig(1), nil); err == nil {
		t.Error("nil memory accepted")
	}
	bad := DefaultConfig(1)
	bad.CDBWidth = 0
	if _, err := NewSystem(bad, mem.New()); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunTimeout(t *testing.T) {
	p := asm.MustAssemble("spin: jmp spin\nhalt")
	s := MustNewSystem(testConfig(1), mem.New())
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1000); err == nil {
		t.Error("expected timeout error")
	}
}

func TestBranchPredictorMistraining(t *testing.T) {
	bp := NewBranchPred(16)
	if bp.Predict(5) {
		t.Error("fresh predictor should predict not-taken (weakly)")
	}
	bp.Train(5, true, 4)
	if !bp.Predict(5) {
		t.Error("trained predictor should predict taken")
	}
	bp.Update(5, false, true)
	bp.Update(5, false, true)
	bp.Update(5, false, true)
	if bp.Predict(5) {
		t.Error("counter should have decayed to not-taken")
	}
	_, mis := bp.Stats()
	if mis != 3 {
		t.Errorf("mispredicts = %d", mis)
	}
	bp.Reset()
	if bp.Predict(5) {
		t.Error("reset should restore weakly not-taken")
	}
}

func TestBranchPredBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBranchPred(3)
}

func TestShadowModelStrings(t *testing.T) {
	for _, m := range []ShadowModel{ShadowSpectre, ShadowSpectreTSO, ShadowFuturistic} {
		if m.String() == "" {
			t.Error("empty shadow name")
		}
	}
	for _, a := range []LoadAction{ActVisible, ActInvisible, ActDelay} {
		if a.String() == "" {
			t.Error("empty action name")
		}
	}
	for _, m := range []IFetchMode{IFetchVisible, IFetchInvisible, IFetchDelay} {
		if m.String() == "" {
			t.Error("empty ifetch name")
		}
	}
}

// ---------------------------------------------------------------------------
// Differential testing against the architectural emulator.

// genProgram builds a random but guaranteed-terminating program mixing
// arithmetic, memory traffic within a 4KB window, forward branches, and
// counted loops.
func genProgram(rng *cache.Rand) *isa.Program {
	b := asm.NewBuilder()
	const dataBase = 0x10000
	b.MovI(isa.R1, dataBase)
	b.MovI(isa.R2, 0x0ff8) // address mask within the window
	regs := []isa.Reg{isa.R3, isa.R4, isa.R5, isa.R6, isa.R7, isa.R8}
	rreg := func() isa.Reg { return regs[rng.Intn(len(regs))] }
	label := 0
	nBlocks := 4 + rng.Intn(5)
	for blk := 0; blk < nBlocks; blk++ {
		n := 3 + rng.Intn(8)
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0:
				b.MovI(rreg(), int64(rng.Intn(1000)))
			case 1:
				b.Add(rreg(), rreg(), rreg())
			case 2:
				b.Sub(rreg(), rreg(), rreg())
			case 3:
				b.MulI(rreg(), rreg(), int64(1+rng.Intn(7)))
			case 4:
				b.Sqrt(rreg(), rreg())
			case 5:
				b.Div(rreg(), rreg(), rreg())
			case 6: // load from masked address
				d, a := rreg(), rreg()
				b.And(isa.R9, a, isa.R2)
				b.Add(isa.R10, isa.R9, isa.R1)
				b.Load(d, isa.R10, 0)
			case 7: // store to masked address
				v, a := rreg(), rreg()
				b.And(isa.R9, a, isa.R2)
				b.Add(isa.R10, isa.R9, isa.R1)
				b.Store(isa.R10, 0, v)
			case 8: // forward branch over the next block
				l := labelName(label)
				label++
				b.Blt(rreg(), rreg(), l)
				b.AddI(rreg(), rreg(), 1)
				b.Label(l)
			case 9: // bounded loop
				cnt := isa.R11
				lim := isa.R12
				l := labelName(label)
				label++
				b.MovI(cnt, 0)
				b.MovI(lim, int64(2+rng.Intn(6)))
				b.Label(l)
				b.AddI(rreg(), rreg(), 2)
				b.AddI(cnt, cnt, 1)
				b.Blt(cnt, lim, l)
			}
		}
	}
	b.Halt()
	return b.MustBuild()
}

func labelName(i int) string {
	return "L" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestDifferentialAgainstEmulator(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := cache.NewRand(seed)
		p := genProgram(rng)

		goldenMem := mem.New()
		e := emu.New(p, goldenMem)
		want, err := e.Run()
		if err != nil {
			t.Fatalf("seed %d: emulator: %v\n%s", seed, err, p)
		}

		pipeMem := mem.New()
		s := MustNewSystem(testConfig(1), pipeMem)
		if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Run(2_000_000); err != nil {
			t.Fatalf("seed %d: pipeline: %v\n%s", seed, err, p)
		}
		c := s.Core(0)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if c.Reg(r) != want.Regs[r] {
				t.Fatalf("seed %d: %s = %d, emulator says %d\n%s",
					seed, r, c.Reg(r), want.Regs[r], p)
			}
		}
		// Compare the data window word by word.
		for off := int64(0); off < 0x1000; off += 8 {
			a := int64(0x10000) + off
			if pipeMem.Read64(a) != goldenMem.Read64(a) {
				t.Fatalf("seed %d: mem[%#x] = %d, emulator says %d",
					seed, a, pipeMem.Read64(a), goldenMem.Read64(a))
			}
		}
	}
}

func TestDifferentialWithDefenses(t *testing.T) {
	// The pipeline must stay architecturally correct under every
	// microarchitectural knob.
	knobs := []func(*Config){
		func(c *Config) { c.CDBWidth = 1 },
		func(c *Config) { c.YoungestFirstIssue = true },
		func(c *Config) { c.HoldRSUntilSafe = true },
		func(c *Config) { c.HoldRSUntilSafe = true; c.AgePriorityArb = true },
		func(c *Config) { c.Cache.DMSHRs = 1 },
		func(c *Config) { c.RSSize = 8; c.ROBSize = 16; c.FetchBufSize = 2 },
	}
	for ki, knob := range knobs {
		for seed := uint64(100); seed < 108; seed++ {
			rng := cache.NewRand(seed)
			p := genProgram(rng)
			goldenMem := mem.New()
			want, err := emu.New(p, goldenMem).Run()
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(1)
			knob(&cfg)
			s := MustNewSystem(cfg, mem.New())
			if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(2_000_000); err != nil {
				t.Fatalf("knob %d seed %d: %v", ki, seed, err)
			}
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if s.Core(0).Reg(r) != want.Regs[r] {
					t.Fatalf("knob %d seed %d: %s = %d, want %d\n%s",
						ki, seed, r, s.Core(0).Reg(r), want.Regs[r], p)
				}
			}
		}
	}
}
