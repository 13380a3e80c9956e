package core

import (
	"fmt"

	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// PrimeKind classifies one cache-priming step of a PrimePlan.
type PrimeKind int

// Prime operation kinds.
const (
	// PrimeWarmInst installs Addr's line into core 0's instruction-side
	// hierarchy down to Level.
	PrimeWarmInst PrimeKind = iota
	// PrimeWarmData installs Addr's line into core 0's data-side hierarchy
	// down to Level.
	PrimeWarmData
	// PrimeFlush evicts Addr's line from the entire hierarchy.
	PrimeFlush
)

// PrimeOp is one cache-priming step. Order matters: priming touches
// replacement state, so plans are applied exactly in sequence.
type PrimeOp struct {
	Kind PrimeKind
	Addr int64
	// Level is the deepest cache level a warm installs to; unused by
	// flushes.
	Level cache.Level
}

// MemWrite is one initial memory write of a trial.
type MemWrite struct {
	Addr, Val int64
}

// RegInit is one initial victim-register assignment.
type RegInit struct {
	Reg isa.Reg
	Val int64
}

// PrimePlan is the declarative initial state of one trial for one secret
// value: the memory writes, the ordered cache-priming operations and the
// victim register file that prepareTrial applies before a run. Plans are
// precomputed per victim (BuildVictim attaches one per secret), which
// keeps the pooled steady-state trial path allocation-free and — more
// importantly — gives the static leak detector (internal/detect) the
// SAME priming ground truth the empirical harness executes: which lines
// start hot or cold, what memory holds, and what the registers are. One
// source of truth, two consumers.
type PrimePlan struct {
	// Secret is the trial's secret bit (0 or 1).
	Secret int
	// MemWrites are applied to memory first.
	MemWrites []MemWrite
	// Ops are the cache-priming steps, in application order.
	Ops []PrimeOp
	// Regs are the victim core's initial registers.
	Regs []RegInit
}

// buildPrimePlan mirrors the historical prepareTrial body operation for
// operation (§4.2.3 step 1 and the per-gadget setup of §3.2.2); the
// committed result baselines pin the equivalence.
func buildPrimePlan(g Gadget, l Layout, p VictimParams, v *Victim, secret int) *PrimePlan {
	plan := &PrimePlan{Secret: secret}

	// The out-of-bounds element T[i] holds the secret; N holds the bound.
	plan.MemWrites = append(plan.MemWrites,
		MemWrite{Addr: l.TAddr + l.Index*8, Val: int64(secret)},
		MemWrite{Addr: l.NAddr, Val: 4},
	)

	// Victim code: warm every line except the secret-encoding target line,
	// which must start cold.
	for pc := 0; pc < v.Prog.Len(); pc++ {
		line := mem.LineAddr(v.Prog.InstAddr(pc))
		if line == v.TargetLine {
			continue
		}
		plan.Ops = append(plan.Ops, PrimeOp{Kind: PrimeWarmInst, Addr: line, Level: cache.LevelL1})
	}
	if v.TargetLine != 0 {
		plan.Ops = append(plan.Ops, PrimeOp{Kind: PrimeFlush, Addr: v.TargetLine})
	}

	// Data priming.
	for _, a := range []int64{l.NAddr, l.AAddr, l.BAddr, l.RefAddr} {
		plan.Ops = append(plan.Ops, PrimeOp{Kind: PrimeFlush, Addr: a})
	}
	for k := 0; k < p.MSHRLoads; k++ {
		plan.Ops = append(plan.Ops, PrimeOp{Kind: PrimeFlush, Addr: l.GadgetBase + int64(k)*mem.LineBytes})
	}
	plan.Ops = append(plan.Ops,
		PrimeOp{Kind: PrimeWarmData, Addr: l.ZAddr, Level: cache.LevelLLC},
		PrimeOp{Kind: PrimeWarmData, Addr: l.TAddr + l.Index*8, Level: cache.LevelL1},
	)
	switch g {
	case GadgetNPEU:
		// Transmitter: S[64] hot (secret=1 hits), S[0] cold.
		plan.Ops = append(plan.Ops,
			PrimeOp{Kind: PrimeFlush, Addr: l.SBase},
			PrimeOp{Kind: PrimeWarmData, Addr: l.SBase + 64, Level: cache.LevelL1},
		)
	case GadgetRS:
		// Inverted per Figure 5: S[0] hot (secret=0 drains the RS),
		// S[64] cold (secret=1 back-throttles the frontend).
		plan.Ops = append(plan.Ops,
			PrimeOp{Kind: PrimeWarmData, Addr: l.SBase, Level: cache.LevelL1},
			PrimeOp{Kind: PrimeFlush, Addr: l.SBase + 64},
		)
	case GadgetMSHR:
		// The gadget loads must all miss; S is unused.
		plan.Ops = append(plan.Ops,
			PrimeOp{Kind: PrimeFlush, Addr: l.SBase},
			PrimeOp{Kind: PrimeFlush, Addr: l.SBase + 64},
		)
	}

	plan.Regs = append(plan.Regs,
		RegInit{Reg: RegN, Val: l.NAddr},
		RegInit{Reg: RegZ, Val: l.ZAddr},
		RegInit{Reg: RegT, Val: l.TAddr},
		RegInit{Reg: RegS, Val: l.SBase},
		RegInit{Reg: RegABase, Val: l.AAddr},
		RegInit{Reg: RegBBase, Val: l.BAddr},
		RegInit{Reg: RegIdx, Val: l.Index},
		RegInit{Reg: RegZero, Val: 0},
	)
	return plan
}

// PrimePlan returns the victim's initial-state plan for one secret value.
// Plans exist only on victims assembled by BuildVictim (hand-constructed
// Victim values have none).
func (v *Victim) PrimePlan(secret int) (*PrimePlan, error) {
	if secret != 0 && secret != 1 {
		return nil, fmt.Errorf("core: secret must be 0 or 1, got %d", secret)
	}
	if v.plans[secret] == nil {
		return nil, fmt.Errorf("core: victim has no prime plan (not built by BuildVictim)")
	}
	return v.plans[secret], nil
}
