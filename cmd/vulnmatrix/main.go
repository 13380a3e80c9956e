// Command vulnmatrix regenerates Table 1: the invisible-speculation
// vulnerability matrix. Every scheme is attacked with every gadget ×
// ordering combination; a cell is vulnerable when the visible LLC access
// pattern over the probe lines differs between secret values.
//
// The run itself goes through the shared experiment engine
// (internal/experiment), which also provides the common flags:
//
//	vulnmatrix [-schemes dom,invisispec-spectre,...] [-verify] [-parallel N]
//	           [-backend inprocess|subprocess|remote] [-procs N]
//	           [-progress] [-json] [-store DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specinterference/internal/core"
	"specinterference/internal/experiment"
	_ "specinterference/internal/experiment/remote" // registers -backend=remote and the -remote-worker mode
	"specinterference/internal/results"
	"specinterference/internal/schemes"
)

func main() {
	var verify *bool
	experiment.Main(experiment.CLIConfig{
		Name:       "vulnmatrix",
		Experiment: results.ExpTable1,
		Flags: func(fs *flag.FlagSet) func() (results.Params, error) {
			schemesFlag := fs.String("schemes", "", "comma-separated scheme list (default: all)")
			verify = fs.Bool("verify", false, "compare against the paper's Table 1 and exit non-zero on mismatch")
			return func() (results.Params, error) {
				names := schemes.Names()
				if *schemesFlag != "" {
					names = strings.Split(*schemesFlag, ",")
				}
				return results.Params{Schemes: names}, nil
			}
		},
		Text: func(w io.Writer, rec *results.Record) error {
			_, err := io.WriteString(w, rec.Table1.Format())
			return err
		},
		After: func(rec *results.Record, jsonMode bool) error {
			if !*verify {
				return nil
			}
			// In -json mode stdout must stay a single JSON document, so
			// the verify diagnostics go to stderr.
			diag := os.Stdout
			if jsonMode {
				diag = os.Stderr
			}
			expected := core.ExpectedTable1()
			bad := 0
			for _, c := range rec.Table1.Cells {
				k := c.Gadget + "|" + c.Ordering
				if want := expected[k][c.Scheme]; want != c.Vulnerable {
					bad++
					fmt.Fprintf(diag, "MISMATCH %-22s %-22s got %v, paper says %v\n", k, c.Scheme, c.Vulnerable, want)
				}
			}
			if bad > 0 {
				fmt.Fprintf(diag, "%d mismatches against the paper's Table 1\n", bad)
				os.Exit(1)
			}
			if !jsonMode {
				fmt.Println("matrix matches the paper's Table 1")
			}
			return nil
		},
	})
}
