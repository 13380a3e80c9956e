package uarch

import (
	"fmt"
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// gateFuturisticPolicy gates issue on the Futuristic shadow, as the
// fence-futuristic defense does: nothing issues before every older
// instruction has completed.
var gateFuturisticPolicy = SpecPolicy{Name: "gate-futuristic", Shadow: ShadowFuturistic, IssueOnlySafe: true}

// checkReadyLists fails unless the RS count, the per-class ready lists,
// the ready mask, the LSU list and the producers' wakeup lists agree with
// the ROB. The count must equal the number of entries holding an RS slot.
// Every rsReady list must be seq-sorted and hold exactly the unissued RS
// entries of its class whose operands are all ready, each once, and the
// mask must have a class's bit set exactly when its list is non-empty.
// The LSU list must be seq-sorted and hold exactly the issued loads with
// work left for the LSU, each once. Every unresolved source tag must have
// exactly one link on its producer's wakeup list, and a list may hold
// only ROB entries with a source slot waiting on that producer. The rename
// map must name, for each register, its youngest writer in the ROB, and
// nil when no entry in the ROB writes it. A load's forwarding-store
// pointer must name an older store in the ROB to the same word, the
// youngest such. Each safety limit the stages read must be the seq of the
// oldest ROB entry satisfying its predicate, by a scan. It returns how
// many entries the ready lists hold.
func checkReadyLists(t *testing.T, c *Core, when string) int {
	t.Helper()
	oldest := func(match func(*entry) bool) int64 {
		for _, e := range c.rob {
			if match(e) {
				return e.seq
			}
		}
		return noSeq
	}
	for _, lim := range []struct {
		what      string
		got, want int64
	}{
		{"unresolved branch", c.oldestUnresolvedCB(), oldest(func(e *entry) bool { return e.dec.condBr && !e.completed })},
		{"incomplete entry", c.oldestIncomplete(), oldest(func(e *entry) bool { return !e.completed })},
		{"unretired fence", c.oldestFence(), oldest(func(e *entry) bool { return e.dec.inst.Op == isa.Fence })},
		{"incomplete load", c.oldestIncompleteLoad(), oldest(func(e *entry) bool { return e.isLoad() && !e.completed })},
		{"store with an unknown address", c.oldestUnknownStore(), oldest(func(e *entry) bool { return e.isStore() && !e.addrKnown })},
	} {
		if lim.got != lim.want {
			t.Fatalf("%s: the oldest %s is seq %d by its cursor and seq %d by a scan (%d: none)",
				when, lim.what, lim.got, lim.want, noSeq)
		}
	}
	listed := map[*entry]isa.Class{}
	for cls := isa.Class(0); cls < isa.NumClasses; cls++ {
		for i, e := range c.rsReady[cls] {
			if prev, dup := listed[e]; dup {
				t.Fatalf("%s: seq %d is on the %s list and the %s list", when, e.seq, prev, cls)
			}
			listed[e] = cls
			if e.dec.class != cls || !e.inRS || e.issued || !e.srcsReady() {
				t.Fatalf("%s: seq %d (%s, inRS %v, issued %v, operands ready %v) is on the %s ready list",
					when, e.seq, e.dec.class, e.inRS, e.issued, e.srcsReady(), cls)
			}
			if i > 0 && c.rsReady[cls][i-1].seq >= e.seq {
				t.Fatalf("%s: the %s ready list is not seq-sorted at seq %d", when, cls, e.seq)
			}
		}
		if set := c.readyMask&(1<<cls) != 0; set != (len(c.rsReady[cls]) > 0) {
			t.Fatalf("%s: ready mask bit for %s is %v with %d entries listed", when, cls, set, len(c.rsReady[cls]))
		}
	}
	if c.readyMask>>isa.NumClasses != 0 {
		t.Fatalf("%s: ready mask %#x has a bit beyond the classes", when, c.readyMask)
	}
	inLSU := map[*entry]bool{}
	for i, e := range c.lsuLoads {
		if inLSU[e] {
			t.Fatalf("%s: seq %d is on the LSU list twice", when, e.seq)
		}
		inLSU[e] = true
		if i > 0 && c.lsuLoads[i-1].seq >= e.seq {
			t.Fatalf("%s: the LSU list is not seq-sorted at seq %d", when, e.seq)
		}
	}
	inROB := map[*entry]bool{}
	inRS := 0
	for _, e := range c.rob {
		inROB[e] = true
		pending := e.isLoad() && e.issued && (e.mstate != memDone || e.invisible && !e.exposed)
		if pending != inLSU[e] {
			t.Fatalf("%s: seq %d (%s, issued %v, state %d, invisible %v, exposed %v) has LSU work %v but is listed %v",
				when, e.seq, e.dec.inst.Op, e.issued, e.mstate, e.invisible, e.exposed, pending, inLSU[e])
		}
		delete(inLSU, e)
		if !e.inRS {
			continue
		}
		inRS++
		if _, ok := listed[e]; e.srcsReady() && !e.issued && !ok {
			t.Fatalf("%s: operand-ready RS entry seq %d (%s) is missing from its ready list", when, e.seq, e.dec.class)
		}
	}
	for e := range inLSU {
		t.Fatalf("%s: the LSU list holds seq %d, which is not in the ROB", when, e.seq)
	}
	if inRS != c.rsUsed {
		t.Fatalf("%s: RS count is %d, but %d entries hold a slot", when, c.rsUsed, inRS)
	}
	type wait struct {
		o    *entry
		prod int64
	}
	links := map[wait]int{}
	for _, p := range c.rob {
		var last wakeLink
		for l := p.wakeHead; l.e != nil; l = l.e.wakeNext[l.k] {
			o := l.e
			if !inROB[o] {
				t.Fatalf("%s: the wakeup list of seq %d holds an entry outside the ROB", when, p.seq)
			}
			if l.k >= o.dec.nsrc || o.srcTag[l.k] != p.seq {
				t.Fatalf("%s: the wakeup list of seq %d holds seq %d, whose source %d does not wait on it",
					when, p.seq, o.seq, l.k)
			}
			w := wait{o, p.seq}
			if links[w]++; links[w] > 1 {
				t.Fatalf("%s: the wakeup list of seq %d holds seq %d twice", when, p.seq, o.seq)
			}
			last = l
		}
		if p.wakeTail != last {
			t.Fatalf("%s: the wakeup list of seq %d does not end at its tail link", when, p.seq)
		}
	}
	for _, o := range c.rob {
		for k := 0; k < o.dec.nsrc; k++ {
			if tag := o.srcTag[k]; tag != -1 && links[wait{o, tag}] != 1 {
				t.Fatalf("%s: source %d of seq %d waits on seq %d, whose wakeup list does not hold it",
					when, k, o.seq, tag)
			}
		}
	}
	var writer [isa.NumRegs]*entry
	for _, e := range c.rob {
		if e.dec.hasDst {
			writer[e.dec.inst.Dst] = e
		}
	}
	for r, p := range c.regMap {
		if p != writer[r] {
			got, want := int64(-1), int64(-1)
			if p != nil {
				got = p.seq
			}
			if writer[r] != nil {
				want = writer[r].seq
			}
			t.Fatalf("%s: the rename map names seq %d for r%d, whose youngest writer in the ROB is seq %d (-1: none)",
				when, got, r, want)
		}
	}
	for _, e := range c.rob {
		st := e.fwd
		if st == nil {
			continue
		}
		if !e.isLoad() || !inROB[st] || !st.isStore() || st.seq >= e.seq || !st.addrKnown || mem.WordAddr(st.addr) != mem.WordAddr(e.addr) {
			t.Fatalf("%s: seq %d (%s) forwards from an entry that is not an older store in the ROB to its word",
				when, e.seq, e.dec.inst.Op)
		}
		for _, o := range c.memOrder {
			if o.seq > st.seq && o.seq < e.seq && o.isStore() && mem.WordAddr(o.addr) == mem.WordAddr(e.addr) {
				t.Fatalf("%s: load seq %d forwards from store seq %d, but store seq %d to its word is younger",
					when, e.seq, st.seq, o.seq)
			}
		}
	}
	return len(listed)
}

// fenceLoopSrc runs a fence in every iteration of a loop, behind a load
// miss and a multiply that retire in different cycles, and another on the
// fall-through path of an alternating branch that waits on the miss, after
// a sqrt. So older entries retire while a fence waits deeper in the ROB,
// and a mispredicted branch squashes a fence fetched past a wrong-path
// entry.
const fenceLoopSrc = `
    movi r1, 4096
    movi r3, 0
    movi r4, 12
    movi r8, 1
loop:
    load r5, 0(r1)        ; a miss; r5 is 0
    mul  r6, r5, r4
    fence
    addi r1, r1, 320
    and  r7, r3, r8
    add  r7, r7, r6
    beq  r7, r0, skip     ; taken on even iterations
    sqrt r9, r4
    fence
    sqrt r9, r9
skip:
    addi r3, r3, 1
    blt  r3, r4, loop
    halt`

// TestReadyListInvariant steps programs cycle by cycle under every issue
// configuration, a small machine, the issue-gating policies and policies
// that delay, hide and expose loads, and after every tick checks that the
// per-class ready lists issue selects from are exactly the unissued
// operand-ready RS entries of each class, in seq order and behind a
// matching ready mask, that the RS count matches the slots held, that the
// LSU list holds exactly the loads lsuTick has work for, that each
// producer's wakeup list holds exactly its waiting consumers, and that
// the rename map and the loads' forwarding-store pointers name only the
// in-flight entries they should, and that the cursors give the oldest
// entry of each safety predicate. Those invariants are what let issue
// select by seq limits, the safety queries skip the ROB scan, lsuTick skip
// loads with nothing to do, broadcast visit only a producer's consumers
// and rename follow a pointer without changing a single counter.
func TestReadyListInvariant(t *testing.T) {
	configs := []struct {
		name  string
		tweak func(*Config)
	}{
		{"default", func(*Config) {}},
		{"youngest-first", func(c *Config) { c.YoungestFirstIssue = true }},
		{"hold-rs", func(c *Config) { c.HoldRSUntilSafe = true }},
		{"hold-rs+age-arb", func(c *Config) { c.HoldRSUntilSafe = true; c.AgePriorityArb = true }},
		{"small", func(c *Config) { c.RSSize, c.ROBSize, c.Cache.DMSHRs, c.CDBWidth = 16, 32, 2, 1 }},
	}
	policies := []SpecPolicy{{Name: "unprotected"}, gateAllPolicy, gateFuturisticPolicy, stallFetchPolicy, tsoPolicy, filterPolicy}
	type prog struct {
		name string
		p    *isa.Program
	}
	progs := []prog{
		{"reset-probe", asm.MustAssemble(resetProbeSrc)},
		{"preempt", preemptProgram()},
		{"fence-loop", asm.MustAssemble(fenceLoopSrc)},
	}
	for seed := uint64(300); seed < 304; seed++ {
		progs = append(progs, prog{fmt.Sprintf("random-%d", seed), genProgram(cache.NewRand(seed))})
	}
	for _, ic := range configs {
		for _, pol := range policies {
			for _, pr := range progs {
				name := fmt.Sprintf("%s/%s/%s", ic.name, pol.Name, pr.name)
				cfg := testConfig(1)
				ic.tweak(&cfg)
				s := MustNewSystem(cfg, mem.New())
				if err := s.LoadProgram(0, pr.p, pol); err != nil {
					t.Fatal(err)
				}
				maxListed := 0
				for !s.AllHalted() {
					if s.Cycle() > 200_000 {
						t.Fatalf("%s: did not halt", name)
					}
					s.Step()
					if n := checkReadyLists(t, s.Core(0), fmt.Sprintf("%s cycle %d", name, s.Cycle())); n > maxListed {
						maxListed = n
					}
				}
				if maxListed == 0 {
					t.Errorf("%s: the ready lists were never populated", name)
				}
			}
		}
	}
}
