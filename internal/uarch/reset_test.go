package uarch

import (
	"slices"
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// resetProbeSrc exercises the structures System.Reset must restore:
// trained and mispredicted branches, cache-missing loads, a store, the
// non-pipelined sqrt unit and a multi-iteration loop.
const resetProbeSrc = `
    movi r1, 4096
    movi r2, 77
    store r2, 0(r1)
    movi r3, 0
    movi r4, 12
loop:
    load r5, 0(r1)
    mul  r6, r5, r4
    sqrt r7, r6
    addi r1, r1, 320      ; stride past the line: every load misses DRAM
    addi r3, r3, 1
    blt  r3, r4, loop
    halt`

// resetDirtySrc is a different program used to perturb a machine before
// resetting it, so the reset has real state to erase.
const resetDirtySrc = `
    movi r1, 8192
    movi r2, 5
    store r2, 0(r1)
    load r3, 64(r1)
    load r4, 128(r1)
    sqrt r5, r2
    halt`

// runSnapshot is the observable outcome of one run, for fresh-vs-reset
// comparison.
type runSnapshot struct {
	cycles  int64
	stats   CoreStats
	regs    [4]int64
	memWord int64
	logLen  int
}

func snapshotRun(t *testing.T, s *System, p *isa.Program) runSnapshot {
	t.Helper()
	warmCode(s, 0, p)
	if err := s.LoadProgram(0, p, SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(200_000); err != nil {
		t.Fatal(err)
	}
	c := s.Core(0)
	return runSnapshot{
		cycles: s.Cycle(),
		stats:  c.Stats(),
		regs: [4]int64{
			c.Reg(isa.R3), c.Reg(isa.R5), c.Reg(isa.R6), c.Reg(isa.R7),
		},
		memWord: s.Memory().Read64(4096),
		logLen:  len(s.Hierarchy().Log()),
	}
}

// TestResetMatchesFreshSystem pins the System.Reset contract: a machine
// that ran arbitrary work and was then reset produces the exact run a
// fresh NewSystem produces, including timing, stats and the visible log.
func TestResetMatchesFreshSystem(t *testing.T) {
	cfg := testConfig(1)
	cfg.Cache.MemJitter = 9 // make the hierarchy RNG observable
	p := asm.MustAssemble(resetProbeSrc)

	fresh := snapshotRun(t, MustNewSystem(cfg, mem.New()), p)

	reused := MustNewSystem(cfg, mem.New())
	snapshotRun(t, reused, asm.MustAssemble(resetDirtySrc))
	reused.Reset(cfg.Cache.Seed)
	if got := snapshotRun(t, reused, p); got != fresh {
		t.Errorf("reset run %+v differs from fresh run %+v", got, fresh)
	}

	// Reset is idempotent under repetition: every further cycle of
	// dirty-work-then-reset replays the identical run.
	for i := 0; i < 2; i++ {
		reused.Reset(cfg.Cache.Seed)
		if got := snapshotRun(t, reused, p); got != fresh {
			t.Errorf("reset cycle %d: run %+v differs from fresh %+v", i, got, fresh)
		}
	}
}

// TestResetAdoptsNewSeed pins that Reset(seed) is equivalent to building a
// fresh machine with that seed, not just to the machine's original seed.
func TestResetAdoptsNewSeed(t *testing.T) {
	cfg := testConfig(1)
	cfg.Cache.MemJitter = 9
	p := asm.MustAssemble(resetProbeSrc)

	cfg7 := cfg
	cfg7.Cache.Seed = 7
	fresh7 := snapshotRun(t, MustNewSystem(cfg7, mem.New()), p)

	reused := MustNewSystem(cfg, mem.New()) // built at seed 1
	_ = snapshotRun(t, reused, p)
	reused.Reset(7)
	got := snapshotRun(t, reused, p)
	if got != fresh7 {
		t.Errorf("reset-to-seed-7 run %+v differs from fresh seed-7 run %+v", got, fresh7)
	}

	// Sanity: the two seeds genuinely diverge under jitter, so the
	// equality above is not vacuous.
	fresh1 := snapshotRun(t, MustNewSystem(cfg, mem.New()), p)
	if fresh1 == fresh7 {
		t.Fatalf("seed 1 and seed 7 runs are identical; jitter probe is broken")
	}
}

// TestLoadProgramDecodeReuse pins LoadProgram's decode reuse: a core
// skips validation and decode only when a program's instructions equal
// the rows its decode table holds, and the table survives System.Reset.
// Loading P, then Q, then P twice must run exactly as on machines that
// decode every load afresh, and a program mutated after its load must
// be validated again.
func TestLoadProgramDecodeReuse(t *testing.T) {
	cfg := testConfig(1)
	cfg.Cache.MemJitter = 9
	p := asm.MustAssemble(resetProbeSrc)
	// q has p's length and differs in one immediate (movi r2, 78), so
	// only a comparison of contents tells the two apart.
	q := &isa.Program{Insts: slices.Clone(p.Insts), CodeBase: p.CodeBase}
	q.Insts[1].Imm = 78
	// pAgain is p's instructions in a slice of its own: a hit must not
	// depend on the pointer.
	pAgain := &isa.Program{Insts: slices.Clone(p.Insts), CodeBase: p.CodeBase}
	seq := []*isa.Program{p, q, p, pAgain}

	t.Run("reset", func(t *testing.T) {
		reused := MustNewSystem(cfg, mem.New())
		for i, prog := range seq {
			if i > 0 {
				reused.Reset(cfg.Cache.Seed)
			}
			want := snapshotRun(t, MustNewSystem(cfg, mem.New()), prog)
			if got := snapshotRun(t, reused, prog); got != want {
				t.Errorf("load %d after reset: run %+v differs from fresh run %+v", i, got, want)
			}
		}
	})
	t.Run("no reset", func(t *testing.T) {
		// Without a reset, caches, registers and the predictor carry over
		// from load to load, so the reference is a second machine given
		// the same sequence with its decode table dropped before each load.
		reused := MustNewSystem(cfg, mem.New())
		ref := MustNewSystem(cfg, mem.New())
		for i, prog := range seq {
			ref.Core(0).decode = nil
			want := snapshotRun(t, ref, prog)
			if got := snapshotRun(t, reused, prog); got != want {
				t.Errorf("load %d: run %+v differs from a fresh decode's %+v", i, got, want)
			}
		}
		if got, want := reused.Memory().Read64(4096), int64(77); got != want {
			t.Errorf("final run stored %d, want p's %d: q's decode was reused", got, want)
		}
	})
	t.Run("mutated", func(t *testing.T) {
		s := MustNewSystem(cfg, mem.New())
		prog := asm.MustAssemble(resetProbeSrc)
		snapshotRun(t, s, prog)
		prog.Insts[2].Op = isa.Op(255)
		if err := s.LoadProgram(0, prog, SpecPolicy{}); err == nil {
			t.Error("LoadProgram accepted a program mutated to an invalid opcode after its last load")
		}
		s.Reset(cfg.Cache.Seed)
		if err := s.LoadProgram(0, prog, SpecPolicy{}); err == nil {
			t.Error("LoadProgram after Reset accepted a program mutated to an invalid opcode")
		}
	})
}
