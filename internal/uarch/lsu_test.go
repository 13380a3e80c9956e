package uarch

import (
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// memTrace runs p on a one-core testConfig machine with dmshrs D-MSHRs,
// a warm I-cache and each of llcLines in the LLC only, under policy, and
// returns the trace records of its retired loads and stores, in program
// order.
func memTrace(t *testing.T, p *isa.Program, dmshrs int, policy SpecPolicy, llcLines ...int64) []InstRecord {
	t.Helper()
	cfg := testConfig(1)
	cfg.Cache.DMSHRs = dmshrs
	s := MustNewSystem(cfg, mem.New())
	warmCode(s, 0, p)
	for _, line := range llcLines {
		s.Hierarchy().Warm(0, line, cache.LevelLLC)
	}
	rec := &captureHook{}
	s.Core(0).SetTraceHook(rec)
	if err := s.LoadProgram(0, p, policy); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	var out []InstRecord
	for _, r := range rec.recs {
		if !r.Squashed && (r.Inst.Op == isa.Load || r.Inst.Op == isa.Store) {
			out = append(out, r)
		}
	}
	return out
}

// TestParkedLoadWakesOnStoreRetireFill: a load that finds the D-MSHR file
// full parks until the file's next fill, unless a line is installed
// first. Here an older store to the load's line retires while the file is
// still full, and retire's write installs the line in the L1D without an
// MSHR. The load must hit it on its next retry, not wait ~190 cycles for
// the file to drain.
func TestParkedLoadWakesOnStoreRetireFill(t *testing.T) {
	const lineX, lineA, lineB = 0x8000, 0x9000, 0xa000
	b := asm.NewBuilder()
	b.MovI(isa.R1, lineX)
	b.MovI(isa.R2, lineA)
	b.MovI(isa.R3, lineB)
	b.MovI(isa.R4, 3)
	b.Mul(isa.R5, isa.R4, isa.R4) // the store's data takes three muls
	b.Mul(isa.R5, isa.R5, isa.R4)
	b.Mul(isa.R5, isa.R5, isa.R4)
	b.Store(isa.R1, 0, isa.R5) // line X, word 0
	b.Load(isa.R6, isa.R2, 0)  // misses on A and B fill the file
	b.Load(isa.R7, isa.R3, 0)  //
	b.MulI(isa.R8, isa.R1, 1)  // the X load's base arrives a mul later
	b.Load(isa.R9, isa.R8, 8)  // line X, word 1: no forwarding
	b.Halt()
	recs := memTrace(t, b.MustBuild(), 2, SpecPolicy{})
	st, a, x := recs[0], recs[1], recs[3]
	if x.Issue >= st.Retire || a.Complete < 200 {
		t.Fatalf("X load issued at %d, store retired at %d, A completed at %d: the X load never found the file full",
			x.Issue, st.Retire, a.Complete)
	}
	if x.Level != cache.LevelL1 || x.Complete != st.Retire+5 {
		t.Errorf("X load completed at %d from %v; want an L1 hit at %d, five cycles after the store retired",
			x.Complete, x.Level, st.Retire+5)
	}
}

// TestParkedLoadWakesOnFilterFill: under a filter policy (MuonTrap), a
// load X parks on a full D-MSHR file in the very cycle the fill of an
// older invisible load I of the same line is reaped, before I writes the
// line into the filter at its writeback. X must be served from the filter
// on its next retry, not wait for the file to drain or for an expose to
// install a line in the L1D. An older store whose data takes 24 sqrts
// keeps every load unexposed meanwhile: nothing is safe under the
// policy's Futuristic shadow until it completes.
func TestParkedLoadWakesOnFilterFill(t *testing.T) {
	const lineK, lineL, lineS = 0x8000, 0x9000, 0xc000
	b := asm.NewBuilder()
	b.MovI(isa.R12, 99)
	b.MovI(isa.R13, lineS)
	for range 24 {
		b.Sqrt(isa.R12, isa.R12)
	}
	b.Store(isa.R13, 0, isa.R12)
	b.MovI(isa.R1, lineK)
	b.MovI(isa.R2, lineL)
	b.MulI(isa.R2, isa.R2, 1) // I issues after K
	b.AddI(isa.R3, isa.R2, 0x1000)
	b.AddI(isa.R4, isa.R2, 0x2000)
	b.Load(isa.R5, isa.R1, 0)      // K
	b.Load(isa.R6, isa.R2, 0)      // I, line L; K and I fill the file
	b.Load(isa.R7, isa.R3, 0)      // A takes K's slot
	b.Load(isa.R8, isa.R4, 0)      // B takes I's slot
	b.Add(isa.R10, isa.R5, isa.R2) // X's base waits for K's data
	b.AddI(isa.R10, isa.R10, 0)
	b.Load(isa.R11, isa.R10, 8) // X, line L, word 1
	b.Halt()
	recs := memTrace(t, b.MustBuild(), 2, filterPolicy)
	st, i, a, x := recs[0], recs[2], recs[3], recs[5]
	if x.Issue+1 != i.Complete || a.Complete < 400 || st.Complete < i.Complete+50 {
		t.Fatalf("X load issued at %d, I completed at %d, A at %d, the store at %d: "+
			"X did not first try the file as I's fill was reaped, with nothing exposed",
			x.Issue, i.Complete, a.Complete, st.Complete)
	}
	if x.Level != cache.LevelL1 || x.Complete != i.Complete+3 {
		t.Errorf("X load completed at %d from %v; want a filter hit at %d, three cycles after I wrote back",
			x.Complete, x.Level, i.Complete+3)
	}
}

// TestParkedLoadCoalescesOnInvisibleMiss: loads O and P of line X find the
// D-MSHR file full of the misses on lines A and B at cycle 113 and park
// until A's fill at 221. At that reap the older O takes A's slot for X,
// invisibly (the policy hides unsafe misses, and a 24-sqrt chain keeps
// every load unsafe), so no line is installed in the L1D or a filter and
// the file is full again. P must coalesce onto O's entry in that same
// cycle and complete with O at 277, when X arrives from the LLC 56 cycles
// later, not re-park until that fill and then walk to the LLC itself
// (333). B's fill is due at 317, after X's, so only the file's lookup can
// wake P at 221.
func TestParkedLoadCoalescesOnInvisibleMiss(t *testing.T) {
	const lineA, lineB, lineX = 0x8000, 0x9000, 0xa000
	invisibleFuturistic := SpecPolicy{
		Name: "invisible-futuristic", Shadow: ShadowFuturistic,
		OnHit: ActInvisible, OnMiss: ActInvisible, ExposeOnSafe: true,
	}
	b := asm.NewBuilder()
	b.MovI(isa.R12, 99)
	for range 24 {
		b.Sqrt(isa.R12, isa.R12)
	}
	b.MovI(isa.R1, lineA)
	b.MovI(isa.R2, lineB)
	for range 20 {
		b.MulI(isa.R2, isa.R2, 1) // B's base arrives 80 cycles after A's
	}
	b.AddI(isa.R3, isa.R2, lineX-lineB) // O and P issue after B
	b.Load(isa.R5, isa.R1, 0)           // A: memory miss
	b.Load(isa.R6, isa.R2, 0)           // B: memory miss; the file is full
	b.Load(isa.R7, isa.R3, 0)           // O: line X, word 0
	b.Load(isa.R8, isa.R3, 8)           // P: line X, word 1
	b.Halt()
	recs := memTrace(t, b.MustBuild(), 2, invisibleFuturistic, lineX)
	a, bl, o, p := recs[0], recs[1], recs[2], recs[3]
	if p.Issue >= a.Complete || bl.Issue >= o.Issue || bl.Complete <= o.Complete {
		t.Fatalf("A completed at %d, B issued at %d and completed at %d, O issued at %d and completed at %d, P issued at %d: "+
			"O and P did not park on A's and B's misses with B's fill due after X's",
			a.Complete, bl.Issue, bl.Complete, o.Issue, o.Complete, p.Issue)
	}
	if o.Complete != a.Complete+56 || p.Complete != o.Complete {
		t.Errorf("O completed at %d and P at %d; want both at %d, an LLC hit 56 cycles after A's fill was reaped",
			o.Complete, p.Complete, a.Complete+56)
	}
}
