package experiment

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"specinterference/internal/results"
	"specinterference/internal/runner"
)

// Backend executes an experiment's shards. Implementations must return
// the concrete shard values in index order; under the spec purity
// contract every backend then produces bit-identical aggregates.
type Backend interface {
	// Name is the backend's CLI name (-backend flag value).
	Name() string
	// Run executes shards [0, n) of spec at params and returns their
	// values in index order. done, when non-nil, is invoked once per
	// completed shard (possibly concurrently).
	Run(ctx context.Context, spec *Spec, p results.Params, n int, done func()) ([]any, error)
}

// InProcess runs shards on the existing bounded worker pool
// (internal/runner) inside the current process — the default backend.
type InProcess struct {
	// Workers bounds shard concurrency (0 = one worker per CPU).
	Workers int
}

// Name implements Backend.
func (InProcess) Name() string { return "inprocess" }

// Run implements Backend.
func (b InProcess) Run(ctx context.Context, spec *Spec, p results.Params, n int, done func()) ([]any, error) {
	state, err := spec.PrepareState(p)
	if err != nil {
		return nil, err
	}
	return runner.Map(ctx, n, b.Workers, func(ctx context.Context, i int) (any, error) {
		v, err := spec.Run(ctx, state, p, i)
		if err == nil && done != nil {
			done()
		}
		return v, err
	})
}

// BackendOptions carries every backend-construction knob the CLIs expose.
// inprocess reads only Workers, subprocess also Procs and Chunk, and
// remote every field; NewBackendOptions rejects a set field the chosen
// backend does not read.
type BackendOptions struct {
	// Procs is the worker-process count: subprocess workers, or local
	// remote workers spawned next to the coordinator (remote: 0 = none,
	// wait for external workers; subprocess: 0 = one per CPU).
	Procs int
	// Workers bounds shard-goroutine concurrency inside each worker.
	Workers int
	// Chunk is the shards per lease of the coordinator the subprocess
	// and remote backends share (0 = n/16 of the n shards, at least 1).
	Chunk int
	// Listen is the remote coordinator's listen address
	// ("" = 127.0.0.1:0, a loopback ephemeral port).
	Listen string
	// Lease is the remote backend's lease time-to-live (0 = default).
	Lease time.Duration
	// Journal is the remote coordinator's shard-result journal
	// directory ("" = journaling disabled): accepted results append to
	// <dir>/<experiment>.jsonl, and a restarted coordinator replays a
	// compatible journal and serves only the remainder.
	Journal string
}

// BackendFactory constructs a backend from CLI options.
type BackendFactory func(o BackendOptions) (Backend, error)

var backendFactories = map[string]BackendFactory{
	"inprocess": func(o BackendOptions) (Backend, error) {
		return InProcess{Workers: o.Workers}, nil
	},
	"subprocess": func(o BackendOptions) (Backend, error) {
		return Subprocess{Procs: o.Procs, Workers: o.Workers, Chunk: o.Chunk}, nil
	},
}

// check fails when o holds a negative count or lease, naming the flag
// and its value: every backend would read it as its default, and the
// remote backend reads -procs -1 as "no local workers" and waits for
// external ones forever. It also fails when o sets an option backend
// does not read, naming each such flag and the backends that do read
// it, so a flag meant for another backend (-journal on a subprocess
// run) stops the run instead of being dropped.
func (o BackendOptions) check(backend string) error {
	var unread []string
	for _, f := range []struct {
		flag     string
		val      any
		set, neg bool
		readers  []string
	}{
		{"-parallel", o.Workers, o.Workers != 0, o.Workers < 0, []string{"inprocess", "subprocess", "remote"}},
		{"-procs", o.Procs, o.Procs != 0, o.Procs < 0, []string{"subprocess", "remote"}},
		{"-chunk", o.Chunk, o.Chunk != 0, o.Chunk < 0, []string{"subprocess", "remote"}},
		{"-listen", o.Listen, o.Listen != "", false, []string{"remote"}},
		{"-lease", o.Lease, o.Lease != 0, o.Lease < 0, []string{"remote"}},
		{"-journal", o.Journal, o.Journal != "", false, []string{"remote"}},
	} {
		if f.neg {
			return fmt.Errorf("experiment: %s %v is negative (want >= 0)", f.flag, f.val)
		}
		if f.set && !slices.Contains(f.readers, backend) {
			unread = append(unread, fmt.Sprintf("%s (read by %s)", f.flag, strings.Join(f.readers, " and ")))
		}
	}
	if len(unread) > 0 {
		return fmt.Errorf("experiment: -backend %s does not read %s", backend, strings.Join(unread, ", "))
	}
	return nil
}

// RegisterBackendFactory adds a named backend constructor; packages that
// cannot be imported from here (internal/experiment/remote imports this
// package) register themselves from init, and linking them in makes the
// name resolvable. Duplicate names panic, like Register.
func RegisterBackendFactory(name string, f BackendFactory) {
	if name == "" || f == nil {
		panic("experiment: backend factory with empty name or nil constructor")
	}
	if _, dup := backendFactories[name]; dup {
		panic("experiment: duplicate backend factory " + name)
	}
	backendFactories[name] = f
}

// BackendNames lists the resolvable backend names in sorted order.
func BackendNames() []string {
	names := make([]string, 0, len(backendFactories))
	for n := range backendFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewBackendOptions constructs a backend from its CLI name and the full
// option set: "inprocess" (worker goroutines), "subprocess" (worker
// processes) or "remote" (network workers); the last two run on the
// coordinator in internal/experiment/remote and need it linked in. A
// negative count or lease, or a set option the backend does not read,
// is an error.
func NewBackendOptions(name string, o BackendOptions) (Backend, error) {
	if name == "" {
		name = "inprocess"
	}
	f, ok := backendFactories[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown backend %q (want one of %v)", name, BackendNames())
	}
	if err := o.check(name); err != nil {
		return nil, err
	}
	return f(o)
}
