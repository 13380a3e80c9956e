package experiment

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"specinterference/internal/results"
)

// CLIConfig wires one experiment binary onto the shared driver: the
// driver owns the common machinery — the -parallel/-backend/-procs/
// -json/-store/-progress flags, hidden worker modes, backend
// selection, store recording, and the -json output, which is the sealed
// record itself — while the config supplies what actually differs per
// experiment: its flags, and how a finished record renders as text.
type CLIConfig struct {
	// Name is the binary name, used for diagnostics and flag errors.
	Name string
	// Experiment is the registry name of the spec to run.
	Experiment string
	// Flags registers the experiment-specific flags on fs and returns a
	// builder invoked after parsing to validate them and produce the run
	// parameters.
	Flags func(fs *flag.FlagSet) func() (results.Params, error)
	// Text writes the human-readable rendering of a finished record to w.
	Text func(w io.Writer, rec *results.Record) error
	// After, when non-nil, runs post-output checks (vulnmatrix -verify);
	// a non-nil error exits 1 after printing it to stderr, and the hook
	// may exit directly for custom diagnostics.
	After func(rec *results.Record, jsonMode bool) error
}

// BackendFlags registers the execution-backend flags (-parallel -backend
// -procs -listen -lease -chunk -journal) on fs and returns a constructor
// to call after parsing. The constructor also returns the parsed options,
// whose Workers and Procs callers stamp into run metadata.
func BackendFlags(fs *flag.FlagSet) func() (Backend, BackendOptions, error) {
	var o BackendOptions
	fs.IntVar(&o.Workers, "parallel", 0, "worker goroutines (0 = one per CPU in-process, serial inside each subprocess/remote worker); results identical at any value")
	name := fs.String("backend", "inprocess", "execution backend: inprocess (worker goroutines), subprocess (re-exec'd worker processes) or remote (HTTP coordinator leasing shard chunks to workers)")
	fs.IntVar(&o.Procs, "procs", 0, "worker processes: subprocess workers (0 = one per CPU) or local remote workers spawned next to the coordinator (0 = none, wait for external -remote-worker processes)")
	fs.StringVar(&o.Listen, "listen", "", "remote backend: coordinator listen address (default 127.0.0.1:0, a loopback ephemeral port)")
	fs.DurationVar(&o.Lease, "lease", 0, "remote backend: shard-lease time-to-live before unfinished work is re-issued (0 = 10s)")
	fs.IntVar(&o.Chunk, "chunk", 0, "shards per lease for the subprocess and remote backends, which share one scheduler (0 = n/16 of the n shards, at least 1)")
	fs.StringVar(&o.Journal, "journal", "", "remote backend: shard-result journal directory for resumable coordinator restarts (accepted results append to <dir>/<experiment>.jsonl; a restarted run replays it and serves only the remainder)")
	return func() (Backend, BackendOptions, error) {
		b, err := NewBackendOptions(*name, o)
		return b, o, err
	}
}

// progressInterval is how often -progress reports to stderr.
const progressInterval = 2 * time.Second

// Main is the shared experiment-CLI entry point.
func Main(cfg CLIConfig) {
	// A process spawned as a backend worker never comes back from this
	// call: it serves its shards and exits.
	RunWorkerIfRequested()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cfg.Name, err)
		os.Exit(1)
	}

	fs := flag.NewFlagSet(cfg.Name, flag.ExitOnError)
	build := cfg.Flags(fs)
	mkBackend := BackendFlags(fs)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of the text rendering")
	storeDir := fs.String("store", "", "append a run record to this results-store directory")
	progress := fs.Bool("progress", false, "report shard completion to stderr (for long sweeps; off by default)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (analyze with `go tool pprof`)")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken after the run to this file")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		die(fmt.Errorf("unexpected arguments: %v", fs.Args()))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		// Main exits through die() on every error path, so profile teardown
		// cannot rely on defers alone; die stops the profile before exiting.
		stop := func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stop()
		prevDie := die
		die = func(err error) {
			stop()
			prevDie(err)
		}
	}
	if *memProfile != "" {
		prevDie, prof := die, *memProfile
		writeHeap := func() error {
			f, err := os.Create(prof)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize the live-heap picture before snapshotting
			return pprof.WriteHeapProfile(f)
		}
		defer func() {
			if err := writeHeap(); err != nil {
				prevDie(err)
			}
		}()
	}

	spec, err := Lookup(cfg.Experiment)
	if err != nil {
		die(err)
	}
	p, err := build()
	if err != nil {
		die(err)
	}
	backend, opts, err := mkBackend()
	if err != nil {
		die(err)
	}
	n, err := spec.Plan(p)
	if err != nil {
		die(err)
	}

	var (
		reporter *progressReporter
		done     func()
	)
	if *progress {
		reporter = startProgress(os.Stderr, cfg.Name, n, progressInterval)
		done = reporter.tick
	}
	start := time.Now()
	rec, err := Run(context.Background(), spec, p, backend, done)
	reporter.finish()
	if err != nil {
		die(err)
	}

	if *storeDir != "" {
		rec.Meta.Backend = backend.Name()
		if backend.Name() != "inprocess" {
			rec.Meta.Procs = opts.Procs
		}
		if err := results.RecordRun(*storeDir, rec, opts.Workers, time.Since(start)); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "recorded %s run %.12s to %s\n", rec.Experiment, rec.Hash, *storeDir)
	}

	// -json prints the record as one line: its params, its hash and its
	// payload, with meta empty unless -store stamped it.
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			die(err)
		}
	} else if err := cfg.Text(os.Stdout, rec); err != nil {
		die(err)
	}

	if cfg.After != nil {
		if err := cfg.After(rec, *jsonOut); err != nil {
			die(err)
		}
	}
}
