package channel

import (
	"context"
	"testing"

	"specinterference/internal/cache"
	"specinterference/internal/core"
	"specinterference/internal/runner"
)

// serialMeasure is the pre-runner serial loop of one channel measurement,
// kept as the golden reference for the seed contract: trial (bit, rep)
// runs with seed seedBase*1_000_003 + 17 + bit*reps + rep + 1.
func serialMeasure(t *testing.T, poc *core.PoC, reps, bits int, seedBase uint64) Result {
	t.Helper()
	rng := cache.NewRand(seedBase | 1)
	res := Result{Reps: reps, Bits: bits}
	var cycles int64
	seed := seedBase*1_000_003 + 17
	for b := 0; b < bits; b++ {
		bit := rng.Intn(2)
		votes := [2]int{}
		for rep := 0; rep < reps; rep++ {
			seed++
			out, err := poc.RunBit(bit, seed)
			if err != nil {
				t.Fatalf("serial reference: %v", err)
			}
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
		if decoded != bit {
			res.Errors++
		}
	}
	res.ErrorRate = float64(res.Errors) / float64(res.Bits)
	res.CyclesPerBit = float64(cycles) / float64(res.Bits)
	res.Bps = NominalGHz * 1e9 / res.CyclesPerBit
	return res
}

// serialCurve measures one serial point per repetition count, each at its
// positional seed base.
func serialCurve(t *testing.T, poc *core.PoC, repsList []int, bits int, seedBase uint64) []Result {
	t.Helper()
	var out []Result
	for i, reps := range repsList {
		out = append(out, serialMeasure(t, poc, reps, bits, PointSeedBase(seedBase, i)))
	}
	return out
}

// shardMeasure is the figure11 spec's path for one curve point: DrawBits,
// one RunBit per flattened trial at TrialSeed on a worker pool, then
// DecodePoint.
func shardMeasure(t *testing.T, poc *core.PoC, reps, bits int, seedBase uint64, workers int) Result {
	t.Helper()
	sent := DrawBits(seedBase, bits)
	outs, err := runner.Map(context.Background(), bits*reps, workers, func(_ context.Context, j int) (core.BitOutcome, error) {
		return poc.RunBit(sent[j/reps], TrialSeed(seedBase, j))
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return DecodePoint(reps, sent, outs)
}

// TestMeasureParallelMatchesSerial asserts a noisy D-Cache measurement is
// bit-identical to the serial loop at worker counts 1 and 4 (every Result
// field, cycle totals included).
func TestMeasureParallelMatchesSerial(t *testing.T) {
	poc := DCacheFigure11()
	want := serialMeasure(t, poc, 3, 4, 11)
	for _, workers := range []int{1, 4} {
		if got := shardMeasure(t, poc, 3, 4, 11, workers); got != want {
			t.Errorf("workers=%d: sharded = %+v, serial = %+v", workers, got, want)
		}
	}
}

// TestCurveParallelMatchesSerial asserts whole curves agree with the
// serial loop at worker counts 1 and 4 (each point derives its seed base
// from its position only).
func TestCurveParallelMatchesSerial(t *testing.T) {
	poc := ICacheFigure11()
	reps := []int{1, 3}
	want := serialCurve(t, poc, reps, 3, 5)
	for _, workers := range []int{1, 4} {
		for i, r := range reps {
			if got := shardMeasure(t, poc, r, 3, PointSeedBase(5, i), workers); got != want[i] {
				t.Errorf("workers=%d: point %d = %+v, serial = %+v", workers, i, got, want[i])
			}
		}
	}
}
