// Command interference regenerates Figure 7: the interference-gadget
// contention histogram. It measures the interference target's execution
// time (first f(z) instruction issue → load A completion) with the gadget
// inert (secret 0) and active (secret 1).
//
// The run itself goes through the shared experiment engine
// (internal/experiment), which also provides the common flags:
//
//	interference [-trials 500] [-jitter 30] [-seed 1] [-parallel N]
//	             [-backend inprocess|subprocess|remote] [-procs N] [-progress]
//	             [-json] [-store DIR]
package main

import (
	"flag"
	"fmt"
	"io"

	"specinterference/internal/core"
	"specinterference/internal/experiment"
	_ "specinterference/internal/experiment/remote" // registers -backend=remote and the -remote-worker mode
	"specinterference/internal/results"
)

func main() {
	experiment.Main(experiment.CLIConfig{
		Name:       "interference",
		Experiment: results.ExpFigure7,
		Flags: func(fs *flag.FlagSet) func() (results.Params, error) {
			trials := fs.Int("trials", 500, "trials per arm")
			jitter := fs.Int("jitter", 30, "DRAM latency jitter (cycles)")
			seed := fs.Uint64("seed", 1, "seed")
			return func() (results.Params, error) {
				return results.Params{Trials: *trials, Jitter: *jitter, Seed: *seed}, nil
			}
		},
		Text: renderText,
	})
}

// renderText reproduces the pre-engine histogram rendering from the
// persisted payload (the histograms are derived views of the arms).
func renderText(w io.Writer, rec *results.Record) error {
	res := core.BuildFigure7Result(rec.Figure7.Baseline, rec.Figure7.Interference)
	fmt.Fprintln(w, "Figure 7: interference gadget contention histogram")
	fmt.Fprintf(w, "separation: %.1f cycles   overlap coefficient: %.3f\n\n", res.Separation, res.Overlap)
	fmt.Fprintln(w, "baseline (no interference):")
	fmt.Fprint(w, res.BaseHist.Render(50))
	fmt.Fprintln(w, "\ninterference:")
	fmt.Fprint(w, res.IntHist.Render(50))
	fmt.Fprintln(w, "\npaper: ~80 rdtsc-cycle shift with clearly separated distributions")
	return nil
}
