package core

import (
	"fmt"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/uarch"
)

// LLCHitThreshold is the cycle threshold separating an LLC hit from a
// memory access in the attacker's timed probes (LLC-hit path ≈ 56 cycles
// plus pipeline slop; misses ≈ 206+, plus jitter).
const LLCHitThreshold = 140

// Receiver registers: the probe program leaves measured latencies here for
// the harness to read.
const (
	RegLatA = isa.R20 // timed latency of the first probed line
	RegLatB = isa.R21 // timed latency of the second probed line
)

// QLRUReceiver is the §4.2.2 replacement-state receiver: it decodes the
// ORDER of the victim's two loads from the QLRU state of one LLC set,
// something a conventional Prime+Probe cannot see (both lines are present
// regardless of order).
//
// Protocol:
//
//	prime: access EVS1 (ways-1 lines) repeatedly — saturating their age at
//	       0 — then access A (inserted at age 1).
//	...victim issues A-B or B-A...
//	probe: access EVS2 (ways-1 fresh lines), then time B and A.
//
// After the probe, QLRU arithmetic leaves B resident iff the victim issued
// A before B (see the package tests for the full state walk-through): a
// timed B hit decodes secret 0, a timed B miss decodes secret 1.
type QLRUReceiver struct {
	EVS1, EVS2 []int64
	A, B       int64
	// PrimeRounds is how often EVS1 is swept during prime (>=2 so ages
	// saturate at 0).
	PrimeRounds int
}

// NewQLRUReceiver constructs eviction sets for the layout's A/B pair on a
// hierarchy built from cfg.
func NewQLRUReceiver(cfg cache.Config, l Layout) (*QLRUReceiver, error) {
	ways := cfg.LLC.Ways
	need := 2 * (ways - 1)
	evs := cfg.EvictionSet(l.AAddr, need, 0x0180_0000, []int64{l.BAddr, l.GadgetBase})
	if len(evs) != need {
		return nil, fmt.Errorf("core: found %d eviction lines, need %d", len(evs), need)
	}
	return &QLRUReceiver{
		EVS1:        evs[:ways-1],
		EVS2:        evs[ways-1:],
		A:           l.AAddr,
		B:           l.BAddr,
		PrimeRounds: 4,
	}, nil
}

// FlushAll evicts every receiver-controlled line (per-trial reset).
func (r *QLRUReceiver) FlushAll(h *cache.Hierarchy) {
	for _, a := range r.EVS1 {
		h.Flush(a)
	}
	for _, a := range r.EVS2 {
		h.Flush(a)
	}
	h.Flush(r.A)
	h.Flush(r.B)
}

// PrimeProgram builds the attacker-core prime sequence.
func (r *QLRUReceiver) PrimeProgram() *isa.Program {
	b := asm.NewBuilder().SetCodeBase(attackerCodeBase)
	for round := 0; round < r.PrimeRounds; round++ {
		for _, a := range r.EVS1 {
			b.MovI(isa.R9, a)
			b.Load(isa.R10, isa.R9, 0)
		}
	}
	b.MovI(isa.R9, r.A)
	b.Load(isa.R10, isa.R9, 0)
	b.Halt()
	return b.MustBuild()
}

// ProbeProgram builds the attacker-core probe: sweep EVS2, then time B and
// A (B first — its fill would otherwise be perturbed by A's).
func (r *QLRUReceiver) ProbeProgram() *isa.Program {
	b := asm.NewBuilder().SetCodeBase(attackerCodeBase)
	for _, a := range r.EVS2 {
		b.MovI(isa.R9, a)
		b.Load(isa.R10, isa.R9, 0)
	}
	b.Fence()
	emitTimedLoad(b, r.B, RegLatB)
	emitTimedLoad(b, r.A, RegLatA)
	b.Halt()
	return b.MustBuild()
}

// emitTimedLoad emits a fenced, cycle-timed load of addr, leaving the
// latency in latReg.
func emitTimedLoad(b *asm.Builder, addr int64, latReg isa.Reg) {
	b.MovI(isa.R9, addr)
	b.Fence()
	b.RdCycle(isa.R11)
	b.Load(isa.R10, isa.R9, 0)
	b.Fence()
	b.RdCycle(isa.R12)
	b.Sub(latReg, isa.R12, isa.R11)
}

// Decode interprets the probe latencies: a resident (fast) B means the
// victim issued A-B, i.e. secret 0. ok is false when the state is
// inconsistent (both lines fast — the noise case the paper discards).
func (r *QLRUReceiver) Decode(latB, latA int64) (secret int, ok bool) {
	bHit := latB < LLCHitThreshold
	aHit := latA < LLCHitThreshold
	if bHit && aHit {
		return 0, false
	}
	if bHit {
		return 0, true
	}
	return 1, true
}

// FlushReloadReceiver is the attacker side of the I-Cache PoC (§4.3): it
// flushes the shared target line before the victim runs and afterwards
// times one load of it. A fast reload means the victim's frontend fetched
// the target line (secret 0 in Figure 5's convention).
type FlushReloadReceiver struct {
	Target int64
}

// ReloadProgram builds the timed reload probe.
func (r *FlushReloadReceiver) ReloadProgram() *isa.Program {
	b := asm.NewBuilder().SetCodeBase(attackerCodeBase)
	emitTimedLoad(b, r.Target, RegLatA)
	b.Halt()
	return b.MustBuild()
}

// Decode interprets the reload latency: present ⇒ the frontend was not
// throttled ⇒ secret 0.
func (r *FlushReloadReceiver) Decode(lat int64) (secret int, ok bool) {
	if lat < LLCHitThreshold {
		return 0, true
	}
	return 1, true
}

// runAttackerProgram loads p on the attacker core (with a warm I-cache)
// and runs it to completion while the victim core keeps ticking (it is
// typically halted or paused).
func runAttackerProgram(sys *uarch.System, p *isa.Program, maxCycles int64) error {
	for pc := 0; pc < p.Len(); pc++ {
		sys.Hierarchy().WarmInst(1, p.InstAddr(pc), cache.LevelL1)
	}
	if err := sys.LoadProgram(1, p, uarch.SpecPolicy{}); err != nil {
		return err
	}
	return sys.RunUntilCoreHalts(1, maxCycles)
}
