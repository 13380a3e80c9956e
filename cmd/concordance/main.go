// Command concordance runs the static speculative-leak detector
// (internal/detect) against the cycle-level simulator over every Table 1
// cell: each scheme × gadget × ordering combination is classified twice —
// once empirically, once by the static analysis — and the two verdicts
// are compared. Any disagreement fails the run.
//
// The run itself goes through the shared experiment engine
// (internal/experiment), which also provides the common flags:
//
//	concordance [-schemes dom,invisispec-spectre,...] [-parallel N]
//	            [-backend inprocess|subprocess|remote] [-procs N]
//	            [-progress] [-json] [-store DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"specinterference/internal/experiment"
	_ "specinterference/internal/experiment/remote" // registers -backend=remote and the -remote-worker mode
	"specinterference/internal/results"
	"specinterference/internal/schemes"
)

func main() {
	experiment.Main(experiment.CLIConfig{
		Name:       "concordance",
		Experiment: results.ExpConcordance,
		Flags: func(fs *flag.FlagSet) func() (results.Params, error) {
			schemesFlag := fs.String("schemes", "", "comma-separated scheme list (default: all)")
			return func() (results.Params, error) {
				names := schemes.Names()
				if *schemesFlag != "" {
					names = strings.Split(*schemesFlag, ",")
				}
				return results.Params{Schemes: names}, nil
			}
		},
		Text: func(w io.Writer, rec *results.Record) error {
			tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
			fmt.Fprintln(tw, "GADGET|ORDERING\tSCHEME\tEMPIRICAL\tDETECTOR\tMECHANISM\tMATCH")
			matches := 0
			for _, c := range rec.Concordance.Cells {
				status := "ok"
				if !c.Match {
					status = "MISMATCH"
				} else {
					matches++
				}
				fmt.Fprintf(tw, "%s|%s\t%s\t%s\t%s\t%s\t%s\n",
					c.Gadget, c.Ordering, c.Scheme,
					vulnWord(c.Empirical), vulnWord(c.Detector), c.Mechanism, status)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
			fmt.Fprintf(w, "\n%d/%d cells concordant\n", matches, len(rec.Concordance.Cells))
			return nil
		},
	})
}

func vulnWord(v bool) string {
	if v {
		return "leak"
	}
	return "protected"
}
