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

// checkReadyLists fails unless the RS count, the per-class ready lists and
// the producers' wakeup lists agree with the ROB. The count must equal the
// number of entries holding an RS slot. Every rsReady list must hold
// exactly the RS entries of its class whose operands are all ready, each
// once. Every unresolved source tag must have exactly one link on its
// producer's wakeup list, and a list may hold only ROB entries with a
// source slot waiting on that producer. It returns how many entries the
// ready lists hold.
func checkReadyLists(t *testing.T, c *Core, when string) int {
	t.Helper()
	listed := map[*entry]isa.Class{}
	for cls := isa.Class(0); cls < isa.NumClasses; cls++ {
		for _, e := range c.rsReady[cls] {
			if prev, dup := listed[e]; dup {
				t.Fatalf("%s: seq %d is on the %s list and the %s list", when, e.seq, prev, cls)
			}
			listed[e] = cls
			if e.class != cls || !e.inRS || !e.srcsReady() {
				t.Fatalf("%s: seq %d (%s, inRS %v, operands ready %v) is on the %s ready list",
					when, e.seq, e.class, e.inRS, e.srcsReady(), cls)
			}
		}
	}
	inROB := map[*entry]bool{}
	inRS := 0
	for _, e := range c.rob {
		inROB[e] = true
		if !e.inRS {
			continue
		}
		inRS++
		if _, ok := listed[e]; e.srcsReady() && !ok {
			t.Fatalf("%s: operand-ready RS entry seq %d (%s) is missing from its ready list", when, e.seq, e.class)
		}
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
			if l.k >= o.nsrc || o.srcTag[l.k] != p.seq {
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
		for k := 0; k < o.nsrc; k++ {
			if tag := o.srcTag[k]; tag != -1 && links[wait{o, tag}] != 1 {
				t.Fatalf("%s: source %d of seq %d waits on seq %d, whose wakeup list does not hold it",
					when, k, o.seq, tag)
			}
		}
	}
	return len(listed)
}

// TestReadyListInvariant steps programs cycle by cycle under every issue
// configuration, a small machine and the issue-gating policies, and after
// every tick checks that the per-class ready lists issue walks are exactly
// the operand-ready RS entries of each class, that the RS count matches
// the slots held, and that each producer's wakeup list holds exactly its
// waiting consumers. Those invariants are what let issue skip entries
// still waiting on producers and broadcast visit only a producer's
// consumers without changing a single counter.
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
	policies := []SpecPolicy{{Name: "unprotected"}, gateAllPolicy, gateFuturisticPolicy, stallFetchPolicy}
	type prog struct {
		name string
		p    *isa.Program
	}
	progs := []prog{
		{"reset-probe", asm.MustAssemble(resetProbeSrc)},
		{"preempt", preemptProgram()},
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
