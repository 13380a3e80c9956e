// Command benchstore manages the committed perf trajectory: the
// BENCH_<name>.json files at the repo root, one per benchmark in
// bench_test.go, each an append-only history of blessed observations
// whose newest entry is the active baseline. It is resultstore's perf
// twin — where resultstore pins what the experiments compute, benchstore
// pins what they cost.
//
// Usage:
//
//	benchstore check [-dir DIR] [-pkg PKG] [-bench RE] [-from FILE] [-v]
//	benchstore bless [-dir DIR] [-pkg PKG] [-bench RE] [-from FILE] -note STR
//	benchstore run   [-pkg PKG] [-bench RE]
//	benchstore list  [-dir DIR]
//
// check runs the fixed-seed suite (`go test -run '^$' -bench RE
// -benchtime 3x -benchmem`), parses it, and diffs every benchmark
// against its committed baseline: allocs/op and B/op exact for the
// steady-state hot-path benchmarks (the alloc-free trial-loop contract),
// ratio-banded elsewhere; ns/op inside a generous band (machines vary —
// the alloc gates carry the precision); b.ReportMetric shape metrics
// exact always (the suite is fixed-seed deterministic). Any regression,
// missing trajectory, or exact-gate mismatch exits non-zero — the CI
// gate. -from FILE checks a saved `go test -bench` output instead of
// running the suite.
//
// bless appends the current numbers to each trajectory with provenance
// (date, commit, toolchain, -note) — the reviewed path for intentional
// perf shifts, and how improvements become the new floor.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"specinterference/internal/bench"
	"specinterference/internal/results"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "check":
		err = runCheck(args)
	case "bless":
		err = runBless(args)
	case "run":
		err = runRun(args)
	case "list":
		err = runList(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "benchstore: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  benchstore check [-dir DIR] [-pkg PKG] [-bench RE] [-from FILE] [-v]
  benchstore bless [-dir DIR] [-pkg PKG] [-bench RE] [-from FILE] -note STR
  benchstore run   [-pkg PKG] [-bench RE]
  benchstore list  [-dir DIR]
`)
}

// suiteFlags registers the shared run-or-read flags and returns a loader.
func suiteFlags(fs *flag.FlagSet) func() ([]bench.Result, error) {
	pkg := fs.String("pkg", ".", "package holding the benchmark suite")
	pattern := fs.String("bench", ".", "benchmark regexp passed to -bench")
	from := fs.String("from", "", "parse a saved `go test -bench` output file instead of running the suite")
	return func() ([]bench.Result, error) {
		if *from != "" {
			return bench.ReadFile(*from)
		}
		return bench.Run(bench.RunConfig{Pkg: *pkg, Pattern: *pattern})
	}
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	dir := fs.String("dir", ".", "trajectory store directory (BENCH_*.json)")
	load := suiteFlags(fs)
	verbose := fs.Bool("v", false, "print same/drift comparisons too")
	fs.Parse(args)
	store, err := bench.OpenStore(*dir)
	if err != nil {
		return err
	}
	results, err := load()
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results to check")
	}
	rep, err := bench.Check(store, results, bench.DefaultTolerance())
	if err != nil {
		return err
	}
	fmt.Print(rep.Format(*verbose))
	if !rep.OK() {
		os.Exit(1)
	}
	return nil
}

func runBless(args []string) error {
	fs := flag.NewFlagSet("bless", flag.ExitOnError)
	dir := fs.String("dir", ".", "trajectory store directory (BENCH_*.json)")
	load := suiteFlags(fs)
	note := fs.String("note", "", "why this entry is being blessed (required)")
	fs.Parse(args)
	if *note == "" {
		return fmt.Errorf("bless requires -note explaining the new baseline")
	}
	store, err := bench.OpenStore(*dir)
	if err != nil {
		return err
	}
	res, err := load()
	if err != nil {
		return err
	}
	if len(res) == 0 {
		return fmt.Errorf("no benchmark results to bless")
	}
	date := time.Now().UTC().Format("2006-01-02")
	if err := bench.Bless(store, res, date, results.GitRevision(), runtime.Version(), *note); err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("blessed %s (%g ns/op, %g allocs/op)\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	return nil
}

func runRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	load := suiteFlags(fs)
	fs.Parse(args)
	res, err := load()
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("%-32s %14.0f ns/op %10.0f B/op %8.0f allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		units := make([]string, 0, len(r.Metrics))
		for u := range r.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			fmt.Printf(" %g %s", r.Metrics[u], u)
		}
		fmt.Println()
	}
	return nil
}

func runList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	dir := fs.String("dir", ".", "trajectory store directory (BENCH_*.json)")
	fs.Parse(args)
	store, err := bench.OpenStore(*dir)
	if err != nil {
		return err
	}
	names, err := store.Names()
	if err != nil {
		return err
	}
	for _, name := range names {
		t, err := store.Load(name)
		if err != nil {
			return err
		}
		base, err := t.Baseline()
		if err != nil {
			return err
		}
		fmt.Printf("%-32s %2d entries  baseline %s (%s): %g ns/op, %g allocs/op\n",
			name, len(t.Entries), base.Date, base.Note, base.NsPerOp, base.AllocsPerOp)
	}
	return nil
}
