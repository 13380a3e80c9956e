package results

import (
	"fmt"

	"specinterference/internal/schemes"
)

// BaselineParams returns the small-trial parameter set the committed
// regression baselines use: large enough that every qualitative result
// (matrix cells, arm separation, decodable channels) shows, small enough
// that a full regeneration is a CI-friendly couple of seconds.
func BaselineParams(experiment string) (Params, error) {
	switch experiment {
	case ExpFigure7:
		return Params{Trials: 8, Jitter: 10, Seed: 1}, nil
	case ExpTable1:
		return Params{Schemes: schemes.Names()}, nil
	case ExpFigure11:
		return Params{PoCs: []string{"dcache", "icache"}, Bits: 4, Reps: []int{1, 3}, Seed: 1}, nil
	case ExpFigure12:
		return Params{Iters: 120, Schemes: []string{"fence-spectre", "fence-futuristic"}}, nil
	case ExpConcordance:
		return Params{Schemes: schemes.Names()}, nil
	default:
		return Params{}, fmt.Errorf("results: unknown experiment %q", experiment)
	}
}
