// Package channel measures end-to-end covert-channel quality: bit error
// probability versus bit rate (the Figure 11 curves). The rate/error
// trade-off knob is the number of PoC repetitions per transmitted bit,
// decoded by majority vote — the paper's "number of times the PoC is run
// to leak each bit" (§4.4).
package channel

import (
	"fmt"

	"specinterference/internal/cache"
	"specinterference/internal/core"
)

// NominalGHz converts simulated cycles to wall-clock time for the bps
// figures, matching the paper's 3.6 GHz Kaby Lake base clock.
const NominalGHz = 3.6

// Result is one point of the error-vs-rate curve. The Figure 11 record
// stores its points as this type, so the JSON field order is part of the
// record signature.
type Result struct {
	Reps         int     `json:"reps"`
	Bits         int     `json:"bits"`
	Errors       int     `json:"errors"`
	Dropped      int     `json:"dropped"` // trials discarded as inconsistent (receiver noise)
	ErrorRate    float64 `json:"error_rate"`
	CyclesPerBit float64 `json:"cycles_per_bit"`
	// Bps is the bit rate at the nominal clock.
	Bps float64 `json:"bps"`
}

// String renders the point like the Figure 11 axes.
func (r Result) String() string {
	return fmt.Sprintf("reps=%2d  rate=%8.0f bps  error=%.3f  (%d/%d bits, %.0f cycles/bit)",
		r.Reps, r.Bps, r.ErrorRate, r.Errors, r.Bits, r.CyclesPerBit)
}

// DrawBits returns the n transmitted bits of a measurement at seedBase,
// drawn upfront in the same rng order the original serial loop drew them
// between trial batches. Pure function of its arguments, so any shard can
// recompute the bit it transmits.
func DrawBits(seedBase uint64, n int) []int {
	rng := cache.NewRand(seedBase | 1)
	bits := make([]int, n)
	for b := range bits {
		bits[b] = rng.Intn(2)
	}
	return bits
}

// TrialSeed returns the seed of flattened trial j (= bit*reps + rep) of a
// measurement at seedBase: seedBase*1_000_003 + 17 + j + 1, the exact
// sequence the original serial loop's seed++ produced.
func TrialSeed(seedBase uint64, j int) uint64 {
	return seedBase*1_000_003 + 17 + uint64(j) + 1
}

// PointSeedBase returns curve point i's measurement seed base in a
// Figure 11 sweep rooted at seedBase.
func PointSeedBase(seedBase uint64, point int) uint64 {
	return seedBase + uint64(point)*7_919
}

// DecodePoint folds the len(bits)*reps trial outcomes of one curve point
// (flattened bit-major, trial j = bit*reps + rep, in index order) into the
// majority-decoded Result — the serial loop's aggregation order, which the
// experiment engine's figure11 spec replays per curve point.
func DecodePoint(reps int, bits []int, outs []core.BitOutcome) Result {
	res := Result{Reps: reps, Bits: len(bits)}
	var cycles int64
	for b := 0; b < len(bits); b++ {
		votes := [2]int{}
		for rep := 0; rep < reps; rep++ {
			out := outs[b*reps+rep]
			cycles += out.Cycles
			if out.OK {
				votes[out.Decoded]++
			} else {
				res.Dropped++
			}
		}
		decoded := 0
		if votes[1] > votes[0] {
			decoded = 1
		}
		if decoded != bits[b] {
			res.Errors++
		}
	}
	res.ErrorRate = float64(res.Errors) / float64(res.Bits)
	res.CyclesPerBit = float64(cycles) / float64(res.Bits)
	res.Bps = NominalGHz * 1e9 / res.CyclesPerBit
	return res
}

// DefaultReps is the repetition sweep used by the Figure 11 harnesses.
func DefaultReps() []int { return []int{1, 3, 5, 9, 15} }

// DCacheFigure11 returns the Figure 11(a) PoC with its calibrated noise
// operating point (adaptive-replacement deviations dominate, §4.2.2).
func DCacheFigure11() *core.PoC {
	p := core.NewDCachePoC("invisispec-spectre", 40)
	p.ReplNoisePct = 5
	return p
}

// ICacheFigure11 returns the Figure 11(b) PoC with its calibrated noise
// operating point (DRAM jitter shifts the RS drain against the squash).
func ICacheFigure11() *core.PoC {
	return core.NewICachePoC("invisispec-spectre", 120)
}

// PoCByName returns the calibrated Figure 11 PoC for a persisted name.
func PoCByName(name string) (*core.PoC, error) {
	switch name {
	case "dcache":
		return DCacheFigure11(), nil
	case "icache":
		return ICacheFigure11(), nil
	default:
		return nil, fmt.Errorf("channel: unknown poc %q (want dcache or icache)", name)
	}
}
