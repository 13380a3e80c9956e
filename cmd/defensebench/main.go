// Command defensebench regenerates Figure 12: execution time of the §5.2
// basic fence defense, normalized to the unsafe baseline, across the
// synthetic SPEC-like kernels.
//
// The run itself goes through the shared experiment engine
// (internal/experiment), which also provides the common flags:
//
//	defensebench [-iters 2000] [-schemes fence-spectre,fence-futuristic]
//	             [-parallel N] [-backend inprocess|subprocess|remote] [-procs N]
//	             [-progress] [-json] [-store DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"specinterference/internal/experiment"
	_ "specinterference/internal/experiment/remote" // registers -backend=remote and the -remote-worker mode
	"specinterference/internal/results"
)

func main() {
	experiment.Main(experiment.CLIConfig{
		Name:       "defensebench",
		Experiment: results.ExpFigure12,
		Flags: func(fs *flag.FlagSet) func() (results.Params, error) {
			iters := fs.Int("iters", 2000, "loop iterations per kernel")
			schemesFlag := fs.String("schemes", "fence-spectre,fence-futuristic",
				"comma-separated defense list")
			return func() (results.Params, error) {
				return results.Params{Iters: *iters, Schemes: strings.Split(*schemesFlag, ",")}, nil
			}
		},
		Text: func(w io.Writer, rec *results.Record) error {
			fmt.Fprintln(w, "Figure 12: fence-defense slowdown over the unsafe baseline")
			fmt.Fprint(w, rec.Figure12.Format(rec.Params.Schemes))
			fmt.Fprintln(w, "\npaper (SPEC CPU2017 on gem5): 1.58x mean Spectre model, 5.38x mean Futuristic model")
			return nil
		},
	})
}
