// Command specsim runs an assembler program on the out-of-order simulator
// under a chosen speculation scheme, optionally printing a pipeline
// timeline and core statistics. With -detect it instead runs the static
// speculative-leak analysis: no simulation, just the per-branch
// speculative windows the policy admits (what issues on the wrong path,
// which lines it touches, how much it parks in the reservation stations).
//
// Usage:
//
//	specsim -f prog.s [-scheme dom] [-trace] [-max 1000000]
//	specsim -f prog.s -scheme dom -detect
//	echo 'movi r1, 2\nhalt' | specsim
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	si "specinterference"
)

func main() {
	file := flag.String("f", "", "assembler source file ('-' or empty reads stdin)")
	schemeName := flag.String("scheme", "unsafe", "speculation scheme: "+strings.Join(si.SchemeNames(), ", "))
	showTrace := flag.Bool("trace", false, "print the pipeline timeline")
	detect := flag.Bool("detect", false, "statically analyze the program's speculative windows instead of simulating")
	maxCycles := flag.Int64("max", 10_000_000, "cycle budget")
	flag.Parse()

	var err error
	if flag.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments: %v", flag.Args())
	} else {
		err = run(*file, *schemeName, *showTrace, *detect, *maxCycles)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "specsim:", err)
		os.Exit(1)
	}
}

func run(file, schemeName string, showTrace, detectMode bool, maxCycles int64) error {
	if maxCycles < 1 {
		return fmt.Errorf("-max %d is below 1 (want a cycle budget >= 1)", maxCycles)
	}
	var src []byte
	var err error
	if file == "" || file == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(file)
	}
	if err != nil {
		return err
	}
	prog, err := si.Assemble(string(src))
	if err != nil {
		return err
	}
	policy, err := si.Scheme(schemeName)
	if err != nil {
		return err
	}
	if detectMode {
		return runDetect(prog, policy)
	}
	sys, _, err := si.NewSystem(si.DefaultConfig(1))
	if err != nil {
		return err
	}
	rec := si.NewTraceRecorder()
	if showTrace {
		sys.Core(0).SetTraceHook(rec)
	}
	if err := sys.LoadProgram(0, prog, policy); err != nil {
		return err
	}
	if err := sys.Run(maxCycles); err != nil {
		return err
	}
	st := sys.Core(0).Stats()
	fmt.Printf("scheme: %s\n", policy.Name)
	fmt.Printf("cycles: %d  retired: %d  IPC: %.2f  squashes: %d\n",
		st.Cycles, st.Retired, st.IPC(), st.Squashes)
	fmt.Printf("delayed loads: %d  invisible loads: %d  exposes: %d  MSHR retries: %d\n",
		st.LoadsDelayed, st.LoadsInvisible, st.Exposes, st.MSHRRetries)
	if showTrace {
		fmt.Println()
		fmt.Print(si.RenderTimeline(rec.Records(), si.TimelineOptions{ShowSquashed: true}))
	}
	return nil
}

// runDetect statically analyzes the program's speculative windows under
// the policy. Both self-composition environments are the zero state, so
// the analysis inspects what the policy admits rather than comparing
// secrets: differential signals need secret-dependent initial state and
// belong to the concordance experiment.
func runDetect(prog *si.Program, policy si.SpecPolicy) error {
	rep, err := si.AnalyzeLeak(prog, policy, [2]si.LeakEnv{})
	if err != nil {
		return err
	}
	fmt.Printf("scheme: %s\n", policy.Name)
	fmt.Printf("shadow: %s  ifetch: %s  issue-in-shadow: %v  stall-fetch: %v\n",
		policy.Shadow, policy.IFetch, policy.CanIssue(false), policy.StallFetchInShadow)
	if len(rep.Pairs) == 0 {
		fmt.Println("no speculative windows (no conditional branches reached, or fetch stalls in shadow)")
		return nil
	}
	for _, p := range rep.Pairs {
		w := p.W[0]
		fmt.Printf("branch@%d: sqrts issued %d (fast %d), miss lines %d, parked %d, visible lines %d, fetched I-lines %d\n",
			p.BranchPC, w.SqrtIssued, w.SqrtFast, len(w.MissLines), w.Parked, len(w.Visible), len(w.Fetched))
	}
	return nil
}
