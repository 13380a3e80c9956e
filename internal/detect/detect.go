// Package detect is the static speculative-leak detector: a
// SPECTECTOR-style analysis that decides, WITHOUT running the cycle-level
// simulator, whether a victim program under a given speculation policy can
// leak its secret through speculative interference (Behnia et al.,
// ASPLOS 2021, §3).
//
// The detector self-composes two abstract executions of the program — one
// per secret value — over the same initial-state ground truth the
// empirical harness primes (core.PrimePlan). Each execution runs the
// architectural (correct) path once on the emulator (internal/emu), whose
// hook reports every instruction; at every conditional branch it opens a
// bounded speculative window down the anti-architectural direction,
// tracking which wrong-path instructions the policy lets issue, which
// lines they touch and whether their operands arrive fast (L1-resident)
// or slow. Comparing the paired windows across the two secrets yields the
// paper's three differential pressure signals:
//
//   - NPEU contention: the count (or readiness) of issued non-pipelined
//     sqrt operations differs by secret (§3.2.2, G_NPEU);
//   - MSHR exhaustion: the per-secret sets of in-flight miss lines differ
//     and one of them covers every L1D MSHR (§3.2.2, G_MSHR);
//   - RS back-pressure: the number of wrong-path instructions parked on
//     slow or unavailable operands exceeds the reservation-station
//     capacity under exactly one secret (§4.3, G_IRS).
//
// A per-ordering rule (see CellVerdict) then combines the pressure
// signals with the policy's visibility rules — shadow model, load
// actions, instruction-fetch mode, issue gating — to produce a leak /
// no-leak verdict and a mechanism string.
//
// # Soundness caveats
//
// The analysis is a model, not a proof. It reasons about ONE speculative
// window per branch (depth bounded by the ROB), treats latency as the
// binary fast/slow classification induced by the primed L1 state, and
// decides pressure by signal-specific thresholds rather than by
// simulating contention cycle by cycle. The concordance experiment
// (one Shard per Table 1 cell) keeps it honest: every verdict is compared
// against the empirical Table 1 classification of the simulator, and any
// mismatch fails the run.
package detect

import (
	"fmt"

	"specinterference/internal/cache"
	"specinterference/internal/core"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// Params are the machine capacities the pressure thresholds compare
// against.
type Params struct {
	// ROBSize bounds the speculative window depth (fetched wrong-path
	// instructions per branch).
	ROBSize int
	// RSSize is the reservation-station capacity the G_IRS clog must
	// exceed.
	RSSize int
	// DMSHRs is the L1D miss-status-holding-register count the G_MSHR
	// exhaustion must cover.
	DMSHRs int
}

// DefaultParams returns the capacities of the attack machine
// (core.AttackConfig).
func DefaultParams() Params {
	cfg := core.AttackConfig()
	return Params{ROBSize: cfg.ROBSize, RSSize: cfg.RSSize, DMSHRs: cfg.Cache.DMSHRs}
}

// Env is the initial abstract machine state for one secret value: the
// memory image, the register file and the set of L1-resident data lines.
// Memory is word-granular as in mem.Memory: a Mem entry sets the 8-byte
// word containing its address. Lines absent from WarmData are "slow" —
// the detector does not care how slow (L2, LLC or DRAM), only that they
// lose against L1 hits.
type Env struct {
	Mem      map[int64]int64
	Regs     [isa.NumRegs]int64
	WarmData map[int64]bool
}

// EnvFromPlan derives the abstract environment from a victim's priming
// plan — the same declarative ground truth prepareTrial executes, so the
// detector and the empirical harness cannot disagree about the initial
// state.
func EnvFromPlan(plan *core.PrimePlan) Env {
	env := Env{Mem: map[int64]int64{}, WarmData: map[int64]bool{}}
	for _, w := range plan.MemWrites {
		env.Mem[w.Addr] = w.Val
	}
	for _, op := range plan.Ops {
		line := mem.LineAddr(op.Addr)
		switch op.Kind {
		case core.PrimeWarmData:
			// Only L1-deep warms make a line "fast"; an LLC warm still
			// loses against L1 hits, which is the only latency contrast
			// the pressure signals use.
			if op.Level == cache.LevelL1 {
				env.WarmData[line] = true
			}
		case core.PrimeFlush:
			delete(env.WarmData, line)
		}
	}
	for _, r := range plan.Regs {
		env.Regs[r.Reg] = r.Val
	}
	return env
}

// Verdict is the detector's decision for one (program, policy) pair.
type Verdict struct {
	// Leak is true when the analysis finds a secret-dependent visible
	// access pattern.
	Leak bool
	// Mechanism names the decisive rule (Mech* constants): the leaking
	// pressure channel, or the property that closes it.
	Mechanism string
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	if v.Leak {
		return fmt.Sprintf("leak(%s)", v.Mechanism)
	}
	return fmt.Sprintf("no-leak(%s)", v.Mechanism)
}

// Mechanism values: why a cell leaks, or what protects it.
const (
	// MechNPEU: differential sqrt-port contention delays the bound-to-
	// retire chain by secret.
	MechNPEU = "npeu-contention"
	// MechMSHR: wrong-path misses exhaust the L1D MSHRs under one secret.
	MechMSHR = "mshr-exhaustion"
	// MechRS: wrong-path RS occupancy throttles the frontend under one
	// secret.
	MechRS = "rs-backpressure"
	// MechFootprint: the wrong path's visible loads touch the probe lines
	// differently by secret (a classic transient-footprint leak, caught
	// for completeness).
	MechFootprint = "wrong-path-visible-footprint"
	// MechNoSpecFetch: the policy never fetches a wrong path (ideal
	// fences).
	MechNoSpecFetch = "no-speculative-fetch"
	// MechNoSpecIssue: wrong-path instructions are fetched but never
	// issue, so no resource pressure forms (fence defenses).
	MechNoSpecIssue = "no-speculative-issue"
	// MechNoPressure: the windows exert no secret-differential pressure.
	MechNoPressure = "no-differential-pressure"
	// MechOrdered: pressure exists, but the scheme's visibility order
	// (TSO / futuristic with non-visible speculative loads) pins the
	// victim's visible accesses to program order, closing VD-VD.
	MechOrdered = "in-order-visibility"
	// MechAbsorbed: the wrong path itself caches the reference line under
	// both secrets, destroying the VD-VD reference clock.
	MechAbsorbed = "wrong-path-caches-reference"
	// MechIFetchProtected: the RS clog exists but speculative fetch
	// leaves no I-cache state for the receiver.
	MechIFetchProtected = "ifetch-protected"
	// MechTargetNotFetched: the drained window never reaches the target
	// line.
	MechTargetNotFetched = "target-line-not-fetched"
)
