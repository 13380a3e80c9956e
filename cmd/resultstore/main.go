// Command resultstore manages the persistent results store: run records
// (experiment parameters + metadata + full payloads) appended as JSONL
// under a store directory by the experiment binaries' -store flag, or
// regenerated here. It lists and shows history, diffs records exactly,
// checks that every result is identical to the committed baseline, and
// writes that baseline.
//
// Usage:
//
//	resultstore list     -store DIR
//	resultstore show     [-store DIR] ref
//	resultstore diff     [-store DIR] [-baseline DIR] refA [refB]
//	resultstore check    -baseline DIR [-store DIR] [-parallel N] [-backend B] [-procs N] [-listen ADDR] [-journal DIR]
//	resultstore baseline -dir DIR [-parallel N] [-backend B] [-procs N] [-listen ADDR] [-journal DIR]
//
// A ref is "experiment" or "experiment@idx": figure7, table1, figure11,
// figure12 or concordance, with an optional 0-based history index
// (negative counts from the newest record; bare names mean the newest).
//
// diff compares refA against refB within -store, or — given -baseline —
// the baseline's newest record against the store's (old → new). Classes:
// identical (canonical bytes match; worker counts and other metadata
// never matter), changed (one "path: old → new" line per moved value,
// e.g. a Table 1 cell's ref_cycle or one Figure 7 sample), and
// incomparable (experiment, schema or parameters differ). diff exits
// non-zero unless the records are identical.
//
// check reruns every baseline experiment at the baseline's recorded
// parameters and exits non-zero unless every experiment is identical;
// TestGolden<Exp> and TestBackendEquivalence (internal/experiment) make
// the same comparison under go test, on every backend. baseline
// (re)writes the committed baseline records at the standard small-trial
// parameters; it is the one refresh command and the one baseline writer.
// Both rerun through the experiment engine: -backend selects inprocess
// (worker goroutines, the -parallel knob), subprocess (re-exec'd worker
// processes, the -procs knob) or remote (an HTTP coordinator leasing
// shard chunks to -procs local workers over loopback, or to external
// -remote-worker processes when -procs is 0), with bit-identical
// records on every backend; a flag the chosen backend does not read is
// an error. With -backend remote, -journal DIR makes the coordinator
// journal every accepted shard result to <DIR>/<experiment>.jsonl; a
// check or baseline killed mid-run and re-invoked with the same
// -journal replays the journal and reruns only the remaining shards.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	si "specinterference"
	"specinterference/internal/experiment"
)

func main() {
	// The subprocess backend re-execs this binary as a shard worker; a
	// worker process serves its range here and never returns.
	si.RunExperimentWorkerIfRequested()
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = runList(args)
	case "show":
		err = runShow(args)
	case "diff":
		err = runDiff(args)
	case "check":
		err = runCheck(args)
	case "baseline":
		err = runBaseline(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "resultstore: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "resultstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  resultstore list     -store DIR
  resultstore show     [-store DIR] experiment[@idx]
  resultstore diff     [-store DIR] [-baseline DIR] refA [refB]
  resultstore check    -baseline DIR [-store DIR] [-parallel N] [-backend inprocess|subprocess|remote] [-procs N] [-listen ADDR] [-journal DIR]
  resultstore baseline -dir DIR [-parallel N] [-backend inprocess|subprocess|remote] [-procs N] [-listen ADDR] [-journal DIR]
`)
}

// openStore opens dir without creating it for read-only subcommands.
func openStore(dir string) (*si.ResultStore, error) {
	if st, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("store %s: %w", dir, err)
	} else if !st.IsDir() {
		return nil, fmt.Errorf("store %s is not a directory", dir)
	}
	return si.OpenResultStore(dir)
}

func runList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	storeDir := fs.String("store", "results-store", "results store directory")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	exps, err := store.Experiments()
	if err != nil {
		return err
	}
	if len(exps) == 0 {
		fmt.Printf("store %s is empty\n", store.Dir())
		return nil
	}
	fmt.Printf("%-12s %-5s %-20s %-14s %7s %8s  %s\n",
		"experiment", "idx", "created", "git", "workers", "wall", "signature")
	for _, exp := range exps {
		recs, err := store.Load(exp)
		if err != nil {
			return err
		}
		for i, r := range recs {
			created, git := r.Meta.CreatedAt, r.Meta.GitRev
			if created == "" {
				created = "-"
			}
			if git == "" {
				git = "-"
			}
			if len(git) > 12 {
				git = git[:12]
			}
			fmt.Printf("%-12s %-5d %-20s %-14s %7d %7dms  %.12s\n",
				exp, i, created, git, r.Meta.Workers, r.Meta.WallMillis, r.Hash)
		}
	}
	return nil
}

// resolve loads the record a ref names from a store.
func resolve(store *si.ResultStore, ref string) (*si.RunRecord, error) {
	exp, idx, err := si.ParseRecordRef(ref)
	if err != nil {
		return nil, err
	}
	return store.At(exp, idx)
}

func runShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	storeDir := fs.String("store", "results-store", "results store directory")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("show takes exactly one experiment[@idx] ref")
	}
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	rec, err := resolve(store, fs.Arg(0))
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	storeDir := fs.String("store", "results-store", "results store directory")
	baselineDir := fs.String("baseline", "", "baseline store; diffs baseline (old) against -store (new)")
	fs.Parse(args)

	var old, new *si.RunRecord
	switch {
	case *baselineDir != "" && fs.NArg() == 1:
		baseline, err := openStore(*baselineDir)
		if err != nil {
			return err
		}
		store, err := openStore(*storeDir)
		if err != nil {
			return err
		}
		if old, err = resolve(baseline, fs.Arg(0)); err != nil {
			return err
		}
		if new, err = resolve(store, fs.Arg(0)); err != nil {
			return err
		}
	case *baselineDir == "" && fs.NArg() == 2:
		store, err := openStore(*storeDir)
		if err != nil {
			return err
		}
		if old, err = resolve(store, fs.Arg(0)); err != nil {
			return err
		}
		if new, err = resolve(store, fs.Arg(1)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("diff takes two refs, or one ref with -baseline")
	}
	report := si.DiffRunRecords(old, new)
	fmt.Print(report.Format())
	if report.Class != si.DiffIdentical {
		os.Exit(1)
	}
	return nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	baselineDir := fs.String("baseline", "", "committed baseline store to gate against (required)")
	storeDir := fs.String("store", "", "optional store to append the fresh records to")
	mkBackend := experiment.BackendFlags(fs)
	fs.Parse(args)
	if *baselineDir == "" {
		return fmt.Errorf("check requires -baseline DIR")
	}
	backend, opts, err := mkBackend()
	if err != nil {
		return err
	}
	baseline, err := openStore(*baselineDir)
	if err != nil {
		return err
	}
	// A partial baseline is a disabled gate, not a smaller one: every
	// experiment must have a committed record or the check fails.
	exps, err := baseline.Experiments()
	if err != nil {
		return err
	}
	if want := si.ResultExperiments(); len(exps) != len(want) {
		return fmt.Errorf("baseline %s covers %v, want records for all of %v (regenerate with `resultstore baseline -dir %s`)",
			*baselineDir, exps, want, *baselineDir)
	}
	var sink *si.ResultStore
	if *storeDir != "" {
		if sink, err = si.OpenResultStore(*storeDir); err != nil {
			return err
		}
	}

	worst := si.DiffIdentical
	for _, exp := range exps {
		ref, err := baseline.Latest(exp)
		if err != nil {
			return err
		}
		start := time.Now()
		fresh, err := si.RunExperiment(context.Background(), exp, ref.Params, backend)
		if err != nil {
			return fmt.Errorf("rerun %s: %w", exp, err)
		}
		fresh.Stamp(opts.Workers, time.Since(start))
		fresh.Meta.Backend = backend.Name()
		if backend.Name() != "inprocess" {
			fresh.Meta.Procs = opts.Procs
		}
		fresh.Meta.Note = "resultstore check"
		if sink != nil {
			if err := sink.Append(fresh); err != nil {
				return err
			}
		}
		report := si.DiffRunRecords(ref, fresh)
		fmt.Print(report.Format())
		if report.Class > worst {
			worst = report.Class
		}
	}
	switch worst {
	case si.DiffIncomparable:
		fmt.Printf("FAIL: baseline in %s is incomparable (parameters or schema changed) — refresh it with `resultstore baseline -dir %s`\n",
			*baselineDir, *baselineDir)
		os.Exit(1)
	case si.DiffChanged:
		fmt.Printf("FAIL: results changed versus the baseline in %s\n", *baselineDir)
		os.Exit(1)
	}
	fmt.Printf("OK: every experiment identical to the baseline in %s\n", *baselineDir)
	return nil
}

func runBaseline(args []string) error {
	fs := flag.NewFlagSet("baseline", flag.ExitOnError)
	dir := fs.String("dir", "", "baseline directory to (re)write (required)")
	mkBackend := experiment.BackendFlags(fs)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("baseline requires -dir DIR")
	}
	backend, _, err := mkBackend()
	if err != nil {
		return err
	}
	store, err := si.OpenResultStore(*dir)
	if err != nil {
		return err
	}
	for _, exp := range si.ResultExperiments() {
		params, err := si.BaselineRunParams(exp)
		if err != nil {
			return err
		}
		rec, err := si.RunExperiment(context.Background(), exp, params, backend)
		if err != nil {
			return fmt.Errorf("regenerate %s: %w", exp, err)
		}
		// Baselines are committed fixtures: keep them free of volatile
		// metadata so regenerating an unchanged tree is byte-identical,
		// and replace rather than append — one record per experiment.
		rec.Meta = si.RunMeta{Note: "baseline"}
		if err := store.Replace(rec); err != nil {
			return err
		}
		fmt.Printf("baseline %-9s %.12s written to %s\n", exp, rec.Hash, store.Dir())
	}
	return nil
}
