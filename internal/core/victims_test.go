package core

import (
	"testing"

	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

func TestDefaultLayoutConflicts(t *testing.T) {
	cfg := AttackConfig().Cache
	l := DefaultLayout(cfg)
	set := func(a int64) int { return mem.SetIndex(a, cfg.LLC.Sets) }
	slice := func(a int64) int { return mem.SliceIndex(a, cfg.LLCSlices) }
	if set(l.BAddr) != set(l.AAddr) || slice(l.BAddr) != slice(l.AAddr) {
		t.Error("B must share A's LLC set and slice")
	}
	if set(l.GadgetBase) != set(l.AAddr) || slice(l.GadgetBase) != slice(l.AAddr) {
		t.Error("GadgetBase must share A's LLC set and slice")
	}
	distinct := map[int64]bool{}
	for _, a := range []int64{l.NAddr, l.ZAddr, l.TAddr, l.SBase, l.AAddr,
		l.BAddr, l.GadgetBase, l.RefAddr} {
		line := mem.LineAddr(a)
		if distinct[line] {
			t.Errorf("address collision at %#x", line)
		}
		distinct[line] = true
	}
	// Nothing else may live in the attacked set: N, z, T, S, Ref all map
	// elsewhere.
	for _, a := range []int64{l.NAddr, l.ZAddr, l.TAddr + l.Index*8, l.SBase,
		l.SBase + 64, l.RefAddr} {
		if set(a) == set(l.AAddr) && slice(a) == slice(l.AAddr) {
			t.Errorf("address %#x pollutes the attacked LLC set", a)
		}
	}
}

func TestBuildVictimAllCombos(t *testing.T) {
	l := DefaultLayout(AttackConfig().Cache)
	p := DefaultVictimParams()
	for _, combo := range Combos() {
		g := combo[0].(Gadget)
		ord := combo[1].(Ordering)
		v, err := BuildVictim(g, ord, l, p)
		if err != nil {
			t.Fatalf("%s/%s: %v", g, ord, err)
		}
		if err := v.Prog.Validate(); err != nil {
			t.Fatalf("%s/%s: invalid program: %v", g, ord, err)
		}
		br := v.Prog.Insts[v.BranchPC]
		if !br.IsCondBranch() {
			t.Errorf("%s/%s: BranchPC %d is %s, not a conditional branch", g, ord, v.BranchPC, br)
		}
		if ord == OrderVIAD {
			if v.TargetLine == 0 {
				t.Errorf("%s/%s: missing target line", g, ord)
			}
			if v.TargetLine%mem.LineBytes != 0 {
				t.Errorf("%s/%s: target line unaligned", g, ord)
			}
		} else {
			if v.Prog.Insts[v.APC].Op != isa.Load || v.Prog.Insts[v.BPC].Op != isa.Load {
				t.Errorf("%s/%s: A/B PCs do not point at loads", g, ord)
			}
		}
	}
}

func TestGIRSRejectsDataOrderings(t *testing.T) {
	l := DefaultLayout(AttackConfig().Cache)
	for _, ord := range []Ordering{OrderVDVD, OrderVDAD} {
		if _, err := BuildVictim(GadgetRS, ord, l, DefaultVictimParams()); err == nil {
			t.Errorf("GIRS with %s should be rejected (Table 1 has no such cell)", ord)
		}
	}
}

func TestGIRSTargetLineIsolated(t *testing.T) {
	// The target function line must not be shared with the correct-path
	// done block (otherwise the correct path refetches it and the channel
	// closes).
	l := DefaultLayout(AttackConfig().Cache)
	v, err := BuildVictim(GadgetRS, OrderVIAD, l, DefaultVictimParams())
	if err != nil {
		t.Fatal(err)
	}
	done := v.Prog.Symbols["done"]
	if mem.LineAddr(v.Prog.InstAddr(done)) == v.TargetLine {
		t.Error("done block shares the target instruction line")
	}
	tfn := v.Prog.Symbols["targetfn"]
	if mem.LineAddr(v.Prog.InstAddr(tfn)) != v.TargetLine {
		t.Error("TargetLine does not match the targetfn label")
	}
}

func TestVictimParamsRespected(t *testing.T) {
	l := DefaultLayout(AttackConfig().Cache)
	p := DefaultVictimParams()
	p.GadgetSqrts = 7
	v, err := BuildVictim(GadgetNPEU, OrderVDVD, l, p)
	if err != nil {
		t.Fatal(err)
	}
	sqrts := 0
	for _, in := range v.Prog.Insts {
		if in.Op == isa.Sqrt {
			sqrts++
		}
	}
	if sqrts != p.FChain+7 {
		t.Errorf("sqrt count = %d, want f-chain %d + gadget 7", sqrts, p.FChain)
	}
}

func TestRSAddsExceedRSCapacity(t *testing.T) {
	cfg := AttackConfig()
	p := DefaultVictimParams()
	if p.RSAdds <= cfg.RSSize+cfg.FetchBufSize {
		t.Errorf("RSAdds %d cannot overflow RS %d + fetch buffer %d",
			p.RSAdds, cfg.RSSize, cfg.FetchBufSize)
	}
}

func TestMSHRLoadsMatchMSHRCount(t *testing.T) {
	cfg := AttackConfig()
	if DefaultVictimParams().MSHRLoads != cfg.Cache.DMSHRs {
		t.Error("the MSHR gadget must issue exactly as many loads as there are MSHRs")
	}
}

func TestGadgetAndOrderingStrings(t *testing.T) {
	for _, g := range []Gadget{GadgetNPEU, GadgetMSHR, GadgetRS} {
		if g.String() == "" {
			t.Error("empty gadget name")
		}
	}
	for _, o := range []Ordering{OrderVDVD, OrderVDAD, OrderVIAD} {
		if o.String() == "" {
			t.Error("empty ordering name")
		}
	}
	if Gadget(9).String() != "gadget(9)" || Ordering(9).String() != "ordering(9)" {
		t.Error("unknown enum rendering")
	}
}
