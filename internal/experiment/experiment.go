// Package experiment is the unified experiment engine: a registry of
// experiment specs — one per paper artifact (the Figure 7 histogram, the
// Table 1 vulnerability matrix, the Figure 11 channel curves, the
// Figure 12 defense sweep, the detector concordance grid) — executed over
// pluggable backends.
//
// A Spec decomposes its experiment into independent shards. The contract
// every spec obeys is the repo-wide determinism contract: Run is a pure
// function of (params, shard index) — each shard derives its seed from
// its index alone and builds its own machine — shard results are
// collected in index order, and Aggregate replays the original serial
// loop's aggregation order. Under that contract the canonical record
// signature is identical however and wherever the shards ran: one
// goroutine, a worker pool (InProcess), or worker processes on one
// coordinator (Subprocess, remote.Remote). The backend is purely a
// wall-clock knob.
//
// Run is the only code that executes a whole experiment: the experiment
// CLIs, resultstore's check and baseline, the facade's RunExperiment and
// the golden and benchmark suites all go through it. The package also
// provides the shared CLI driver (Main) the experiment binaries sit on,
// and BackendFlags, the backend flag set Main and resultstore share.
package experiment

import (
	"context"
	"fmt"
	"sort"

	"specinterference/internal/results"
)

// Spec declares one experiment: its shard plan, the pure per-shard run
// function, and the serial-order aggregator producing a sealed run
// record.
type Spec struct {
	// Name is the registry key and results-store experiment name.
	Name string

	// Plan validates params and returns the total shard count.
	Plan func(p results.Params) (int, error)

	// Prepare builds optional per-process state shared by every shard the
	// process runs (constructed PoCs, derived bit sequences). State must
	// be a deterministic function of params — it exists to amortize
	// construction cost, never to carry cross-shard mutability — so that
	// Run stays a pure function of (params, shard). May be nil.
	Prepare func(p results.Params) (any, error)

	// Run executes shard i and returns its result value. The value must
	// survive a JSON round-trip losslessly (concrete struct or float64,
	// no maps of any), because the subprocess backend ships it between
	// processes; NewShard provides the decode target.
	Run func(ctx context.Context, state any, p results.Params, i int) (any, error)

	// NewShard returns a pointer to a zero shard value for JSON decoding;
	// the decoded element type must match what Run returns.
	NewShard func() any

	// Aggregate folds the Plan(p) shard values, in shard-index order,
	// into a sealed record. It must replay the original serial loop's
	// aggregation order so the record signature is backend-independent.
	Aggregate func(p results.Params, shards []any) (*results.Record, error)
}

var registry = map[string]*Spec{}

// Register adds a spec to the registry; duplicate names panic (specs are
// registered from init functions, so a duplicate is a programming error).
func Register(s *Spec) {
	if s.Name == "" {
		panic("experiment: spec with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		panic("experiment: duplicate spec " + s.Name)
	}
	registry[s.Name] = s
}

// Lookup returns the named spec.
func Lookup(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown experiment %q (want one of %v)", name, Names())
	}
	return s, nil
}

// Names lists the registered experiments in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run plans, executes and aggregates one experiment on a backend,
// returning the sealed (unstamped) record. A nil backend runs in-process
// with one worker per CPU. done, when non-nil, is invoked once per
// completed shard (possibly concurrently) — the progress hook.
func Run(ctx context.Context, spec *Spec, p results.Params, b Backend, done func()) (*results.Record, error) {
	if spec == nil {
		return nil, fmt.Errorf("experiment: nil spec")
	}
	if b == nil {
		b = InProcess{}
	}
	n, err := spec.Plan(p)
	if err != nil {
		return nil, err
	}
	shards, err := b.Run(ctx, spec, p, n, done)
	if err != nil {
		return nil, err
	}
	return spec.Aggregate(p, shards)
}

// PrepareState runs the spec's Prepare hook, tolerating its absence —
// the worker-side entry every backend transport uses before serving
// shard ranges.
func (s *Spec) PrepareState(p results.Params) (any, error) {
	if s.Prepare == nil {
		return nil, nil
	}
	return s.Prepare(p)
}
