package experiment

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"specinterference/internal/results"
)

// TestMain lets this test binary serve as a subprocess-backend shard
// worker when the Subprocess tests re-exec it. The scheduler and the
// worker modes come from internal/experiment/remote, which this package
// cannot import; the external test package (equivalence_test.go) links
// it into the test binary.
func TestMain(m *testing.M) {
	RunWorkerIfRequested()
	os.Exit(m.Run())
}

// failSpec is a test-only spec whose shard `failAt` errors; it must be
// registered from init so re-exec'd worker processes know it too.
const failAt = 3

func init() {
	Register(&Spec{
		Name: "test-fail",
		Plan: func(p results.Params) (int, error) { return p.Trials, nil },
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			if i == failAt {
				return nil, fmt.Errorf("shard %d exploded", i)
			}
			return float64(i), nil
		},
		NewShard: func() any { return new(float64) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			return nil, fmt.Errorf("aggregate must not run after a shard failure")
		},
	})
}

func TestRegistryNames(t *testing.T) {
	want := []string{"concordance", "figure11", "figure12", "figure7", "table1", "test-crash-once", "test-fail", "test-stderr"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if _, err := Lookup("figure7"); err != nil {
		t.Errorf("Lookup(figure7): %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(&Spec{Name: "figure7"})
}

// TestPlanCounts pins the shard grids to the serial loops' trial counts.
func TestPlanCounts(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		p    results.Params
		want int
	}{
		{"figure7", results.Params{Trials: 5, Jitter: 1, Seed: 1}, 10},
		{"table1", results.Params{Schemes: []string{"unsafe", "dom"}}, 14},
		// 2 pocs × 3 bits × (1+3) reps.
		{"figure11", results.Params{PoCs: []string{"dcache", "icache"}, Bits: 3, Reps: []int{1, 3}, Seed: 1}, 24},
		// 6 workloads × (1 baseline + 2 schemes).
		{"figure12", results.Params{Iters: 10, Schemes: []string{"fence-spectre", "fence-futuristic"}}, 18},
		{"concordance", results.Params{Schemes: []string{"unsafe", "dom"}}, 14},
	} {
		spec, err := Lookup(tc.exp)
		if err != nil {
			t.Fatal(err)
		}
		n, err := spec.Plan(tc.p)
		if err != nil {
			t.Errorf("%s: Plan: %v", tc.exp, err)
			continue
		}
		if n != tc.want {
			t.Errorf("%s: Plan = %d shards, want %d", tc.exp, n, tc.want)
		}
	}
}

// TestPlanValidation: bad parameters must fail planning, not execution.
func TestPlanValidation(t *testing.T) {
	for _, tc := range []struct {
		exp string
		p   results.Params
	}{
		{"figure7", results.Params{Trials: 0}},
		{"figure7", results.Params{Trials: 4, Jitter: -5}},
		{"table1", results.Params{}},
		{"table1", results.Params{Schemes: []string{"unsafe", "", "dom"}}},
		{"table1", results.Params{Schemes: []string{"bogus"}}},
		{"table1", results.Params{Schemes: []string{"dom", "unsafe", "dom"}}},
		{"figure11", results.Params{PoCs: []string{"dcache"}, Bits: 0, Reps: []int{1}}},
		{"figure11", results.Params{PoCs: []string{"dcache"}, Bits: 2, Reps: []int{0}}},
		{"figure11", results.Params{PoCs: []string{"l4cache"}, Bits: 2, Reps: []int{1}}},
		{"figure12", results.Params{Iters: 0, Schemes: []string{"fence-spectre"}}},
		{"figure12", results.Params{Iters: 5}},
		{"figure12", results.Params{Iters: 5, Schemes: []string{"fence-spectre", ""}}},
		{"figure12", results.Params{Iters: 5, Schemes: []string{"fence-bogus"}}},
		{"figure12", results.Params{Iters: 5, Schemes: []string{"fence-spectre", "fence-spectre"}}},
		{"concordance", results.Params{}},
		{"concordance", results.Params{Schemes: []string{"unsafe", "", "dom"}}},
		{"concordance", results.Params{Schemes: []string{"bogus"}}},
		{"concordance", results.Params{Schemes: []string{"dom", "dom"}}},
	} {
		spec, err := Lookup(tc.exp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Plan(tc.p); err == nil {
			t.Errorf("%s: Plan(%+v) succeeded, want error", tc.exp, tc.p)
		}
	}
}

// TestRunProgressCallback: the done hook fires once per shard.
func TestRunProgressCallback(t *testing.T) {
	spec, _ := Lookup("figure7")
	p := results.Params{Trials: 3, Jitter: 2, Seed: 1}
	var done atomic.Int64
	if _, err := Run(context.Background(), spec, p, InProcess{Workers: 2}, func() { done.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if done.Load() != 6 {
		t.Errorf("done fired %d times, want 6", done.Load())
	}
}

// TestShardErrorInProcess: a failing shard aborts the run with its error
// and aggregation never runs.
func TestShardErrorInProcess(t *testing.T) {
	spec, _ := Lookup("test-fail")
	_, err := Run(context.Background(), spec, results.Params{Trials: 8}, InProcess{Workers: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("err = %v, want the shard failure", err)
	}
}

// TestShardErrorSubprocess: the worker streams the failure back and the
// parent surfaces it.
func TestShardErrorSubprocess(t *testing.T) {
	spec, _ := Lookup("test-fail")
	_, err := Run(context.Background(), spec, results.Params{Trials: 8}, Subprocess{Procs: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("err = %v, want the shard failure", err)
	}
}

// TestNewBackend covers name resolution.
func TestNewBackend(t *testing.T) {
	for name, want := range map[string]string{"": "inprocess", "inprocess": "inprocess", "subprocess": "subprocess"} {
		b, err := NewBackendOptions(name, BackendOptions{})
		if err != nil || b.Name() != want {
			t.Errorf("NewBackendOptions(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := NewBackendOptions("carrier-pigeon", BackendOptions{}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestNewBackendUnreadFlags: a flag the chosen backend does not read, or
// a negative count on any backend, fails construction with an error
// naming that flag and no other, and every flag a backend reads is
// accepted. Flags are set through BackendFlags' own FlagSet, and the
// flags checked are the ones it registers, so a flag added there without
// a row in BackendOptions.check fails the sweep at the end: each flag
// belongs to some backends and not to others, so a flag check never
// names is one it has no row for. The remote backend resolves because
// the external test package links internal/experiment/remote into this
// test binary.
func TestNewBackendUnreadFlags(t *testing.T) {
	// build sets each flag of set through a fresh BackendFlags FlagSet
	// and constructs the backend.
	build := func(backend string, set map[string]string) (Backend, error) {
		t.Helper()
		fs := flag.NewFlagSet("backend-flags", flag.ContinueOnError)
		mk := BackendFlags(fs)
		if err := fs.Set("backend", backend); err != nil {
			t.Fatal(err)
		}
		for name, v := range set {
			if err := fs.Set(strings.TrimPrefix(name, "-"), v); err != nil {
				t.Fatalf("set %s %s: %v", name, v, err)
			}
		}
		b, _, err := mk()
		return b, err
	}
	var flags []string // every flag BackendFlags registers but -backend
	fs := flag.NewFlagSet("backend-flags", flag.ContinueOnError)
	BackendFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name != "backend" {
			flags = append(flags, "-"+f.Name)
		}
	})

	const listen, journal = "1.2.3.4:99", "journal-dir"
	for _, tc := range []struct {
		backend string
		set     map[string]string
		named   []string // the flags the error must name; none = accepted
	}{
		{"inprocess", map[string]string{"-parallel": "4"}, nil},
		{"subprocess", map[string]string{"-procs": "2"}, nil},
		{"remote", map[string]string{"-procs": "2", "-journal": journal, "-listen": listen}, nil},
		{"inprocess", map[string]string{"-procs": "7"}, []string{"-procs"}},
		{"inprocess", map[string]string{"-listen": listen}, []string{"-listen"}},
		{"inprocess", map[string]string{"-journal": journal}, []string{"-journal"}},
		{"inprocess", map[string]string{"-parallel": "2", "-procs": "7", "-journal": journal}, []string{"-procs", "-journal"}},
		{"subprocess", map[string]string{"-procs": "2", "-parallel": "2"}, []string{"-parallel"}},
		{"subprocess", map[string]string{"-procs": "2", "-listen": listen}, []string{"-listen"}},
		{"subprocess", map[string]string{"-procs": "2", "-journal": journal}, []string{"-journal"}},
		{"subprocess", map[string]string{"-procs": "2", "-journal": journal, "-listen": listen}, []string{"-listen", "-journal"}},
		{"remote", map[string]string{"-procs": "2", "-parallel": "2"}, []string{"-parallel"}},
		{"inprocess", map[string]string{"-parallel": "-1"}, []string{"-parallel"}},
		{"subprocess", map[string]string{"-procs": "-1"}, []string{"-procs"}},
		{"remote", map[string]string{"-procs": "-1"}, []string{"-procs"}},
	} {
		b, err := build(tc.backend, tc.set)
		if len(tc.named) == 0 {
			if err != nil || b.Name() != tc.backend {
				t.Errorf("-backend %s %v = %v, %v; want the backend", tc.backend, tc.set, b, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("-backend %s %v succeeded, want an error naming %v", tc.backend, tc.set, tc.named)
			continue
		}
		for _, name := range flags {
			if named, want := strings.Contains(err.Error(), name+" "), slices.Contains(tc.named, name); named != want {
				t.Errorf("-backend %s %v: error names %s = %v, want %v: %v", tc.backend, tc.set, name, named, want, err)
			}
		}
	}
	for _, name := range flags {
		unread := false
		for _, backend := range BackendNames() {
			_, err := build(backend, map[string]string{name: "2"})
			unread = unread || err != nil && strings.Contains(err.Error(), name+" (read by ")
		}
		if !unread {
			t.Errorf("%s 2 is accepted by every backend (%v): BackendOptions.check has no row for it", name, BackendNames())
		}
	}
}

// TestShardJSONRoundTrip pins the subprocess wire contract: every spec's
// shard value must survive Marshal → Unmarshal-into-NewShard losslessly,
// which is what makes the two backends bit-identical.
func TestShardJSONRoundTrip(t *testing.T) {
	for _, exp := range results.Experiments() {
		spec, err := Lookup(exp)
		if err != nil {
			t.Fatal(err)
		}
		p := smallParams(t, exp)
		state, err := spec.PrepareState(p)
		if err != nil {
			t.Fatal(err)
		}
		v, err := spec.Run(context.Background(), state, p, 0)
		if err != nil {
			t.Fatalf("%s: Run: %v", exp, err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", exp, err)
		}
		back, err := DecodeShard(spec, raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", exp, err)
		}
		if !reflect.DeepEqual(v, back) {
			t.Errorf("%s: shard value changed across the wire:\n  sent %#v\n  got  %#v", exp, v, back)
		}
	}
}

// smallParams returns tiny but valid params for an experiment.
func smallParams(t *testing.T, exp string) results.Params {
	t.Helper()
	switch exp {
	case "figure7":
		return results.Params{Trials: 2, Jitter: 3, Seed: 1}
	case "table1", "concordance":
		return results.Params{Schemes: []string{"unsafe"}}
	case "figure11":
		return results.Params{PoCs: []string{"dcache"}, Bits: 2, Reps: []int{1}, Seed: 1}
	case "figure12":
		return results.Params{Iters: 30, Schemes: []string{"fence-spectre"}}
	default:
		t.Fatalf("unknown experiment %q", exp)
		return results.Params{}
	}
}
