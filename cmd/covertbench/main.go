// Command covertbench regenerates Figure 11: bit error probability versus
// bit rate for the D-Cache (§4.2) and I-Cache (§4.3) covert-channel PoCs.
// The trade-off knob is the number of attack repetitions per transmitted
// bit, decoded by majority vote.
//
// The run itself goes through the shared experiment engine
// (internal/experiment), which also provides the common flags:
//
//	covertbench [-poc dcache|icache|both] [-bits 64] [-reps 1,3,5,9,15]
//	            [-seed 1] [-parallel N] [-backend inprocess|subprocess|remote]
//	            [-procs N] [-progress] [-json] [-store DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"specinterference/internal/channel"
	"specinterference/internal/experiment"
	_ "specinterference/internal/experiment/remote" // registers -backend=remote and the -remote-worker mode
	"specinterference/internal/results"
)

// displayName maps persisted PoC names to the Figure 11 captions.
func displayName(poc string) string {
	switch poc {
	case "dcache":
		return "D-Cache"
	case "icache":
		return "I-Cache"
	default:
		return poc
	}
}

// defaultReps renders channel.DefaultReps as the -reps flag value.
func defaultReps() string {
	reps := make([]string, 0, len(channel.DefaultReps()))
	for _, r := range channel.DefaultReps() {
		reps = append(reps, strconv.Itoa(r))
	}
	return strings.Join(reps, ",")
}

func main() {
	experiment.Main(experiment.CLIConfig{
		Name:       "covertbench",
		Experiment: results.ExpFigure11,
		Flags: func(fs *flag.FlagSet) func() (results.Params, error) {
			poc := fs.String("poc", "both", "dcache, icache or both")
			bits := fs.Int("bits", 64, "random bits per curve point")
			repsFlag := fs.String("reps", defaultReps(), "comma-separated repetitions-per-bit sweep")
			seed := fs.Uint64("seed", 1, "measurement seed")
			return func() (results.Params, error) {
				var pocs []string
				switch *poc {
				case "dcache", "icache":
					pocs = []string{*poc}
				case "both":
					pocs = []string{"dcache", "icache"}
				default:
					return results.Params{}, fmt.Errorf("bad -poc value %q (want dcache, icache or both)", *poc)
				}
				var reps []int
				for _, s := range strings.Split(*repsFlag, ",") {
					v, err := strconv.Atoi(strings.TrimSpace(s))
					if err != nil || v < 1 {
						return results.Params{}, fmt.Errorf("bad reps value %q", s)
					}
					reps = append(reps, v)
				}
				return results.Params{PoCs: pocs, Bits: *bits, Reps: reps, Seed: *seed}, nil
			}
		},
		Text: func(w io.Writer, rec *results.Record) error {
			for _, c := range rec.Figure11.Curves {
				fmt.Fprintf(w, "Figure 11 (%s PoC, scheme %s): error rate vs bit rate\n",
					displayName(c.PoC), c.Scheme)
				for _, pt := range c.Points {
					fmt.Fprintln(w, "  "+pt.String())
				}
				fmt.Fprintln(w)
			}
			return nil
		},
	})
}
