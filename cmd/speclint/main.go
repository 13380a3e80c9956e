// Command speclint runs the repo's contract-enforcement analyzers
// (internal/lint): nondeterminism, allocfree and lockdiscipline. It is the static counterpart of the dynamic gates —
// equivalence sweeps, AllocsPerRun pins, -race — and runs in CI ahead of
// the test matrix.
//
// Standalone mode (the CI gate):
//
//	speclint [-C dir] [-run analyzer,...] [packages]
//
// lints the named package patterns (default ./...) and exits 1 if any
// diagnostic fires, printing findings as file:line:col: analyzer: message.
//
// Vet mode: the binary also speaks the `go vet -vettool` unit protocol
// (-V=full, -flags, and a single JSON .cfg argument), so
//
//	go vet -vettool=$(which speclint) ./...
//
// works too. In vet mode each package is analyzed in isolation, so the
// nondeterminism reachability analysis only sees roots declared in the
// package under analysis; the standalone whole-module run is the
// authoritative gate.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specinterference/internal/lint"
)

func main() {
	// Vet unit protocol: -V=full and -flags come before flag parsing.
	args := os.Args[1:]
	if len(args) == 1 && args[0] == "-V=full" {
		// go vet caches vet results keyed by the tool's content hash,
		// which it reads from the buildID field of this line.
		fmt.Printf("%s version devel comments-go-here buildID=%02x\n", os.Args[0], selfHash())
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0]))
	}

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

// vetUnit analyzes one `go vet` package unit; findings go to stderr and
// exit code 2, matching the vettool convention.
func vetUnit(cfgPath string) int {
	cfg, pkg, err := lint.LoadVetConfig(cfgPath)
	if cfg != nil && cfg.VetxOutput != "" {
		// vet requires the facts file to exist even though speclint
		// exports no facts.
		if werr := os.WriteFile(cfg.VetxOutput, nil, 0o666); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			return 1
		}
	}
	if err != nil {
		if cfg != nil && cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if pkg == nil { // VetxOnly unit: facts written, nothing to analyze
		return 0
	}
	diags, err := lint.Run([]*lint.Package{pkg}, lint.All())
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// selfHash digests the running binary for the vet build-cache key; a
// rebuilt speclint invalidates prior vet verdicts.
func selfHash() []byte {
	exe, err := os.Executable()
	if err != nil {
		return []byte("unknown")
	}
	f, err := os.Open(exe)
	if err != nil {
		return []byte("unknown")
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return []byte("unknown")
	}
	return h.Sum(nil)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "speclint:", err)
	os.Exit(2)
}
