// Package core implements the paper's primary contribution: the speculative
// interference attack framework (§3) and its end-to-end proof-of-concept
// attacks (§4).
//
// The pieces map to the paper as follows:
//
//   - Victim builders (victims.go) generate the sender programs: an
//     interference gadget in the shadow of a mistrained, slow-to-resolve
//     branch, plus an interference target of bound-to-retire instructions.
//     Three gadgets are provided: GDNPEU (non-pipelined execution-unit
//     contention, Figure 3/6), GDMSHR (miss-status-holding-register
//     exhaustion, Figure 4), and GIRS (reservation-station back-pressure on
//     the frontend, Figure 5).
//   - The QLRU replacement-state receiver (receiver.go) implements §4.2.2:
//     prime with EVS1 + A, let the victim issue its secret-dependent order,
//     probe with EVS2, then time A and B.
//   - Trial orchestration (trial.go) runs victim and attacker cores against
//     one shared hierarchy, including the cross-core "reference clock"
//     access of the VD-AD and VI-AD orderings (§3.3.1).
//   - The Table 1 vulnerability matrix driver (matrix.go) classifies every
//     scheme × gadget × ordering combination by comparing visible LLC
//     access logs across secret values.
//   - The Figure 7 histogram and the Figure 11 channel PoCs build on the
//     same trial machinery (figure7.go, poc.go).
//
// # Steady-state performance
//
// Batch harnesses run thousands of trials whose machines differ only by
// seed. TrialState (trialstate.go) exploits that: each worker resets one
// pooled two-core system in place between trials (uarch.System.Reset)
// and reuses every result buffer, with victim programs and PoC receivers
// memoized on the state, so the post-warmup trial loop performs zero
// heap allocations. Every trial, NewAttackSystem's included, builds or
// resets its machine in TrialState.attackSystem and finds its victim in
// the state's memo, the only victim cache. The reuse path is pinned
// bit-identical to fresh construction by TestTrialStateMatchesRunTrial
// and the committed result baselines, and the zero is pinned by
// TestTrialLoopAllocFree plus the committed BENCH_*.json trajectories
// (internal/bench). RunTrial remains the single-shot entry point: it
// runs on a private state, so its result — including the post-run
// System — belongs to the caller.
package core

import (
	"fmt"

	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/uarch"
)

// Layout fixes the victim/attacker address map for one attack instance.
// All addresses are line-aligned and chosen not to collide in the LLC set
// under attack except where the attack requires it.
type Layout struct {
	// NAddr holds the branch bound N; its line is flushed before every
	// trial so the bounds check resolves slowly (the speculation window).
	NAddr int64
	// ZAddr holds z, the input of the target's address chains; warmed to
	// the LLC so it resolves at a medium latency.
	ZAddr int64
	// TAddr is the base of the "array" whose out-of-bounds element the
	// access load reads; TAddr+Index*8 holds the secret bit.
	TAddr int64
	// SBase is the transmitter array: the transmitter loads
	// SBase + secret*64, so SBase+64 is primed hot and SBase+0 stays cold.
	SBase int64
	// AAddr is the victim load A (interference-target load).
	AAddr int64
	// BAddr is the reference load B; same LLC set and slice as AAddr.
	BAddr int64
	// RefAddr is the attacker's cross-core reference line (AD orderings).
	RefAddr int64
	// GadgetBase is the base of the GDMSHR gadget's load region.
	GadgetBase int64
	// Index is the out-of-bounds index i used by the access load.
	Index int64
}

// Victim register conventions: the harness presets these before a run, in
// place of a long (and timing-noisy) immediate preamble.
const (
	RegN     = isa.R1 // &N
	RegZ     = isa.R2 // &z
	RegT     = isa.R3 // &T[0]
	RegS     = isa.R4 // &S[0]
	RegABase = isa.R5 // A address base
	RegBBase = isa.R6 // B address base
	RegIdx   = isa.R7 // i (out-of-bounds index)
	RegZero  = isa.R8 // always 0
)

// DefaultLayout returns the address map used by the PoCs on a hierarchy
// built from cfg. Offsets are chosen so that the attacked LLC set (AAddr's
// set) contains nothing but A, B and the receiver's eviction sets: victim
// and attacker code lines land in low sets, each data line in its own low
// set, and AAddr sits in set 100 of a 1024-set LLC.
func DefaultLayout(cfg cache.Config) Layout {
	l := Layout{
		NAddr:   0x0100_0000 + 1*64,
		ZAddr:   0x0110_0000 + 2*64,
		TAddr:   0x0120_0000 + 3*64,
		SBase:   0x0130_0000 + 4*64,
		AAddr:   0x0140_0000 + 100*64,
		RefAddr: 0x0170_0000 + 60*64,
		Index:   512, // "out of bounds" for T
	}
	// B and the MSHR gadget's k=0 line (the coalescing reference) must
	// conflict with A in the LLC set and slice so the QLRU receiver can
	// read the access order from one set's replacement state.
	l.GadgetBase = cfg.EvictionSet(l.AAddr, 1, 0x0150_0000, nil)[0]
	l.BAddr = cfg.EvictionSet(l.AAddr, 1, 0x0160_0000, nil)[0]
	return l
}

// ProbeLines returns the two line addresses whose visible-access pattern
// encodes the secret for a gadget/ordering combination (the secret line
// first): the observation points the static leak detector shares with the
// empirical harness. A fixed-size array keeps the per-trial result path
// off the heap.
func ProbeLines(g Gadget, ord Ordering, l Layout, v *Victim) [2]int64 {
	switch ord {
	case OrderVDVD:
		bLine := mem.LineAddr(l.BAddr)
		if g == GadgetMSHR {
			// The MSHR victim's reference load coalesces with the gadget's
			// first line instead of using BAddr.
			bLine = mem.LineAddr(l.GadgetBase)
		}
		return [2]int64{mem.LineAddr(l.AAddr), bLine}
	case OrderVDAD:
		return [2]int64{mem.LineAddr(l.AAddr), mem.LineAddr(l.RefAddr)}
	default: // OrderVIAD
		return [2]int64{v.TargetLine, mem.LineAddr(l.RefAddr)}
	}
}

// Gadget identifies one of the paper's interference gadgets.
type Gadget int

// Gadgets (§3.2.2).
const (
	// GadgetNPEU delays the target-address generation via contention on
	// the non-pipelined Sqrt unit (GDNPEU, implicit gadget).
	GadgetNPEU Gadget = iota
	// GadgetMSHR delays the victim load by exhausting L1D MSHRs (GDMSHR,
	// explicit gadget).
	GadgetMSHR
	// GadgetRS throttles the frontend by filling the reservation stations
	// (GIRS, implicit gadget).
	GadgetRS
)

// String implements fmt.Stringer.
func (g Gadget) String() string {
	switch g {
	case GadgetNPEU:
		return "G_NPEU"
	case GadgetMSHR:
		return "G_MSHR"
	case GadgetRS:
		return "G_RS"
	default:
		return fmt.Sprintf("gadget(%d)", int(g))
	}
}

// ParseGadget is the inverse of Gadget.String, for rebuilding typed
// matrix cells from persisted run records.
func ParseGadget(s string) (Gadget, error) {
	for _, g := range []Gadget{GadgetNPEU, GadgetMSHR, GadgetRS} {
		if g.String() == s {
			return g, nil
		}
	}
	return 0, fmt.Errorf("core: unknown gadget %q", s)
}

// Ordering identifies which two unprotected accesses the secret reorders
// (§3.3.1). The paper's VD-VI column behaves like VD-VD and is covered by
// it in the matrix.
type Ordering int

// Orderings.
const (
	// OrderVDVD reorders two victim data loads (A and B).
	OrderVDVD Ordering = iota
	// OrderVDAD orders a victim data load against an attacker reference
	// access from another core.
	OrderVDAD
	// OrderVIAD orders a victim instruction fetch against an attacker
	// reference access.
	OrderVIAD
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case OrderVDVD:
		return "VD-VD/VI"
	case OrderVDAD:
		return "VD-AD"
	case OrderVIAD:
		return "VI-AD"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// ParseOrdering is the inverse of Ordering.String, for rebuilding typed
// matrix cells from persisted run records.
func ParseOrdering(s string) (Ordering, error) {
	for _, o := range []Ordering{OrderVDVD, OrderVDAD, OrderVIAD} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("core: unknown ordering %q", s)
}

// AttackConfig returns the two-core uarch configuration the attacks run
// on: a 16-way QLRU LLC (the receiver needs the §4.2.2 policy), modest
// private caches, and the default 8-port backend.
func AttackConfig() uarch.Config {
	cfg := uarch.DefaultConfig(2)
	cfg.Cache = cache.Config{
		Cores:      2,
		L1I:        cache.Geometry{Sets: 64, Ways: 4, Latency: 1},
		L1D:        cache.Geometry{Sets: 64, Ways: 4, Latency: 4},
		L2:         cache.Geometry{Sets: 256, Ways: 4, Latency: 12},
		LLC:        cache.Geometry{Sets: 1024, Ways: 16, Latency: 40},
		LLCSlices:  2,
		L1Policy:   cache.PolicyLRU,
		LLCPolicy:  cache.PolicyQLRU,
		MemLatency: 150,
		MemJitter:  0,
		DMSHRs:     4,
		Seed:       1,
	}
	return cfg
}
