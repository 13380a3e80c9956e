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

// checkReadyLists fails unless every rsReady list holds exactly the RS
// entries of its class whose operands are all ready, each once. It
// returns how many entries the lists hold.
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
	for _, e := range c.rs {
		if _, ok := listed[e]; e.srcsReady() && !ok {
			t.Fatalf("%s: operand-ready RS entry seq %d (%s) is missing from its ready list", when, e.seq, e.class)
		}
	}
	return len(listed)
}

// TestReadyListInvariant steps programs cycle by cycle under every issue
// configuration and the issue-gating policies, and after every tick checks
// that the per-class ready lists issue walks are exactly the operand-ready
// RS entries of each class. That invariant is what lets issue skip entries
// still waiting on producers without changing a single counter.
func TestReadyListInvariant(t *testing.T) {
	configs := []struct {
		name  string
		tweak func(*Config)
	}{
		{"default", func(*Config) {}},
		{"youngest-first", func(c *Config) { c.YoungestFirstIssue = true }},
		{"hold-rs", func(c *Config) { c.HoldRSUntilSafe = true }},
		{"hold-rs+age-arb", func(c *Config) { c.HoldRSUntilSafe = true; c.AgePriorityArb = true }},
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
