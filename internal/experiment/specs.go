package experiment

import (
	"context"
	"fmt"
	"slices"

	"specinterference/internal/channel"
	"specinterference/internal/core"
	"specinterference/internal/detect"
	"specinterference/internal/results"
	"specinterference/internal/schemes"
	"specinterference/internal/workload"
)

// The paper-artifact specs. Each one decomposes its experiment into
// the exact shard grid the pre-engine harnesses used and reuses their
// per-shard primitives and serial-order aggregators, so records produced
// here carry the same canonical signatures as the committed baselines.
func init() {
	Register(figure7Spec())
	Register(table1Spec())
	Register(figure11Spec())
	Register(figure12Spec())
	Register(concordanceSpec())
}

// checkSchemes fails unless names holds at least one scheme and each is
// a known one named once, so a bad -schemes value stops the run in
// planning, before any backend starts a worker. A repeated name would
// run its cells twice and list the scheme twice in the output.
func checkSchemes(exp string, names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("experiment: %s needs at least one scheme", exp)
	}
	for i, name := range names {
		if _, err := schemes.ByName(name); err != nil {
			return fmt.Errorf("experiment: %s: %w", exp, err)
		}
		if slices.Contains(names[:i], name) {
			return fmt.Errorf("experiment: %s: scheme %q named twice", exp, name)
		}
	}
	return nil
}

// figure7Spec shards the §4.2.1 contention histogram one trial per shard:
// baseline arm in [0, trials), interference arm in [trials, 2*trials),
// seed = seedBase + 2*trial + secret.
func figure7Spec() *Spec {
	return &Spec{
		Name: results.ExpFigure7,
		Plan: func(p results.Params) (int, error) {
			// The cache adds DRAM jitter only when it is positive, so a
			// negative value would run as 0 under another signature.
			if p.Jitter < 0 {
				return 0, fmt.Errorf("experiment: figure7 jitter must be >= 0, got %d", p.Jitter)
			}
			return core.Figure7Shards(p.Trials)
		},
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			return core.Figure7Shard(p.Trials, p.Jitter, p.Seed, i)
		},
		NewShard: func() any { return new(float64) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			lats := make([]float64, len(shards))
			for i, s := range shards {
				lats[i] = s.(float64)
			}
			res := core.BuildFigure7Result(lats[:p.Trials:p.Trials], lats[p.Trials:])
			return results.NewFigure7Record(res, p.Trials, p.Jitter, p.Seed)
		},
	}
}

// table1Spec shards the vulnerability matrix one cell per
// scheme×gadget×ordering combination, in the serial loop's cell order.
func table1Spec() *Spec {
	return &Spec{
		Name: results.ExpTable1,
		Plan: func(p results.Params) (int, error) {
			if err := checkSchemes(results.ExpTable1, p.Schemes); err != nil {
				return 0, err
			}
			return core.MatrixShards(p.Schemes), nil
		},
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			return core.MatrixShard(p.Schemes, i)
		},
		NewShard: func() any { return new(core.MatrixCell) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			cells := make([]core.MatrixCell, len(shards))
			for i, s := range shards {
				cells[i] = s.(core.MatrixCell)
			}
			return results.NewTable1Record(cells, p.Schemes)
		},
	}
}

// concordanceSpec shards the detector agreement grid one cell per
// scheme×gadget×ordering combination, matching table1's cell order: each
// shard runs both the empirical classification and the static analysis.
func concordanceSpec() *Spec {
	return &Spec{
		Name: results.ExpConcordance,
		Plan: func(p results.Params) (int, error) {
			if err := checkSchemes(results.ExpConcordance, p.Schemes); err != nil {
				return 0, err
			}
			return core.MatrixShards(p.Schemes), nil
		},
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			return detect.Shard(p.Schemes, i)
		},
		NewShard: func() any { return new(detect.Cell) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			cells := make([]detect.Cell, len(shards))
			for i, s := range shards {
				cells[i] = s.(detect.Cell)
			}
			return results.NewConcordanceRecord(cells, p.Schemes)
		},
	}
}

// figure11State is the per-process state of a channel sweep: constructed
// PoCs and the per-point derived values every shard needs. All of it is a
// deterministic function of the params.
type figure11State struct {
	pocs []*core.PoC
	// perPoc is the shard count of one PoC's full curve.
	perPoc int
	// offset[pt] is the first flattened trial index of curve point pt
	// within a PoC's shard range; point pt spans bits*reps[pt] trials.
	offset []int
	// sent[pt] holds point pt's transmitted bits, drawn exactly as the
	// serial measurement drew them.
	sent [][]int
}

func newFigure11State(p results.Params) (*figure11State, error) {
	st := &figure11State{}
	for _, name := range p.PoCs {
		poc, err := channel.PoCByName(name)
		if err != nil {
			return nil, err
		}
		st.pocs = append(st.pocs, poc)
	}
	for pt, reps := range p.Reps {
		if reps < 1 {
			return nil, fmt.Errorf("experiment: figure11 reps must be >= 1, got %d", reps)
		}
		st.offset = append(st.offset, st.perPoc)
		st.sent = append(st.sent, channel.DrawBits(channel.PointSeedBase(p.Seed, pt), p.Bits))
		st.perPoc += p.Bits * reps
	}
	return st, nil
}

// locate resolves flattened shard j into (poc, point, trial-within-point).
func (st *figure11State) locate(p results.Params, j int) (poc *core.PoC, pt, trial int) {
	poc = st.pocs[j/st.perPoc]
	r := j % st.perPoc
	pt = len(st.offset) - 1
	for pt > 0 && r < st.offset[pt] {
		pt--
	}
	return poc, pt, r - st.offset[pt]
}

// figure11Spec shards the Figure 11 error-versus-rate sweep one PoC trial
// per shard: PoCs outermost, then curve points, then the bits×reps trial
// grid of each point, seeded exactly as the serial measurement loops.
func figure11Spec() *Spec {
	return &Spec{
		Name: results.ExpFigure11,
		Plan: func(p results.Params) (int, error) {
			if p.Bits < 1 {
				return 0, fmt.Errorf("experiment: figure11 bits must be >= 1, got %d", p.Bits)
			}
			if len(p.Reps) == 0 || len(p.PoCs) == 0 {
				return 0, fmt.Errorf("experiment: figure11 needs at least one poc and one reps value")
			}
			// Validate without building the per-process state: the count
			// is just pocs × bits × Σreps.
			for _, name := range p.PoCs {
				if _, err := channel.PoCByName(name); err != nil {
					return 0, err
				}
			}
			perPoc := 0
			for _, reps := range p.Reps {
				if reps < 1 {
					return 0, fmt.Errorf("experiment: figure11 reps must be >= 1, got %d", reps)
				}
				perPoc += p.Bits * reps
			}
			return len(p.PoCs) * perPoc, nil
		},
		Prepare: func(p results.Params) (any, error) { return newFigure11State(p) },
		Run: func(_ context.Context, state any, p results.Params, j int) (any, error) {
			st := state.(*figure11State)
			poc, pt, trial := st.locate(p, j)
			seedBase := channel.PointSeedBase(p.Seed, pt)
			bit := st.sent[pt][trial/p.Reps[pt]]
			return poc.RunBit(bit, channel.TrialSeed(seedBase, trial))
		},
		NewShard: func() any { return new(core.BitOutcome) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			st, err := newFigure11State(p)
			if err != nil {
				return nil, err
			}
			var curves []results.Figure11Curve
			for pi, name := range p.PoCs {
				c := results.Figure11Curve{PoC: name, Scheme: st.pocs[pi].SchemeName}
				for pt, reps := range p.Reps {
					lo := pi*st.perPoc + st.offset[pt]
					outs := make([]core.BitOutcome, p.Bits*reps)
					for t := range outs {
						outs[t] = shards[lo+t].(core.BitOutcome)
					}
					c.Points = append(c.Points, channel.DecodePoint(reps, st.sent[pt], outs))
				}
				curves = append(curves, c)
			}
			return results.NewFigure11Record(curves, p.Bits, p.Reps, p.Seed)
		},
	}
}

// figure12Spec shards the defense-overhead sweep one workload×policy cell
// per shard, unsafe baseline included, in the serial loop's cell order.
func figure12Spec() *Spec {
	evalConfig := func(p results.Params) workload.EvalConfig {
		return workload.EvalConfig{
			Iters:   p.Iters,
			Schemes: p.Schemes,
			Cores:   1,
		}.Normalize()
	}
	return &Spec{
		Name: results.ExpFigure12,
		Plan: func(p results.Params) (int, error) {
			if p.Iters < 1 {
				return 0, fmt.Errorf("experiment: figure12 iters must be >= 1, got %d", p.Iters)
			}
			if err := checkSchemes(results.ExpFigure12, p.Schemes); err != nil {
				return 0, err
			}
			return workload.EvalShards(evalConfig(p)), nil
		},
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			return workload.EvalShard(evalConfig(p), i)
		},
		NewShard: func() any { return new(workload.Cell) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			cells := make([]workload.Cell, len(shards))
			for i, s := range shards {
				cells[i] = s.(workload.Cell)
			}
			res := workload.AggregateCells(evalConfig(p), cells)
			return results.NewFigure12Record(res, p.Iters, p.Schemes)
		},
	}
}
