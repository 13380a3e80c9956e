// Command speclint runs the repo's contract-enforcement analyzers
// (internal/lint): nondeterminism, allocfree and lockdiscipline. It is the static counterpart of the dynamic gates —
// equivalence sweeps, AllocsPerRun pins, -race — and runs in CI ahead of
// the test matrix.
//
// Usage (the CI gate):
//
//	speclint [-C dir] [-run analyzer,...] [packages]
//
// lints the named package patterns (default ./...) and exits 1 if any
// diagnostic fires, printing findings as file:line:col: analyzer: message.
// The packages are loaded together, so the nondeterminism reachability
// analysis follows calls across package boundaries.
package main

import (
	"flag"
	"fmt"
	"os"

	"specinterference/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "change to `dir` before resolving packages")
	run := flag.String("run", "", "comma-separated analyzer subset (default: all)")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := lint.ByName(*run)
	if err != nil {
		fail(err)
	}
	pkgs, err := lint.LoadPackages(*dir, patterns...)
	if err != nil {
		fail(err)
	}
	diags, err := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if err != nil {
		fail(err)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "speclint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "speclint:", err)
	os.Exit(2)
}
