package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
// a negative count or lease on any backend, fails construction with an
// error naming that flag and no other, and every flag a backend reads is
// accepted. The remote backend resolves because the external test
// package links internal/experiment/remote into this test binary.
func TestNewBackendUnreadFlags(t *testing.T) {
	const listen, lease, journal = "1.2.3.4:99", time.Millisecond, "journal-dir"
	for _, tc := range []struct {
		backend string
		o       BackendOptions
		unread  []string // the flags the error must name; none = accepted
	}{
		{"inprocess", BackendOptions{Workers: 4}, nil},
		{"subprocess", BackendOptions{Workers: 2, Procs: 2, Chunk: 3}, nil},
		{"inprocess", BackendOptions{Procs: 7}, []string{"-procs"}},
		{"inprocess", BackendOptions{Chunk: 5}, []string{"-chunk"}},
		{"inprocess", BackendOptions{Listen: listen}, []string{"-listen"}},
		{"inprocess", BackendOptions{Lease: lease}, []string{"-lease"}},
		{"inprocess", BackendOptions{Journal: journal}, []string{"-journal"}},
		{"inprocess", BackendOptions{Workers: 2, Procs: 7, Chunk: 5, Journal: journal}, []string{"-procs", "-chunk", "-journal"}},
		{"subprocess", BackendOptions{Procs: 2, Listen: listen}, []string{"-listen"}},
		{"subprocess", BackendOptions{Procs: 2, Lease: lease}, []string{"-lease"}},
		{"subprocess", BackendOptions{Procs: 2, Journal: journal}, []string{"-journal"}},
		{"subprocess", BackendOptions{Procs: 2, Chunk: 1, Journal: journal, Lease: lease, Listen: listen}, []string{"-listen", "-lease", "-journal"}},
		{"remote", BackendOptions{Workers: 2, Procs: 2, Chunk: 1, Journal: journal, Lease: lease, Listen: listen}, nil},
		{"inprocess", BackendOptions{Workers: -1}, []string{"-parallel"}},
		{"subprocess", BackendOptions{Procs: -1}, []string{"-procs"}},
		{"subprocess", BackendOptions{Procs: 2, Chunk: -1}, []string{"-chunk"}},
		{"remote", BackendOptions{Procs: -1}, []string{"-procs"}},
		{"remote", BackendOptions{Procs: 1, Lease: -time.Second}, []string{"-lease"}},
	} {
		b, err := NewBackendOptions(tc.backend, tc.o)
		if len(tc.unread) == 0 {
			if err != nil || b.Name() != tc.backend {
				t.Errorf("NewBackendOptions(%s, %+v) = %v, %v; want the backend", tc.backend, tc.o, b, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("NewBackendOptions(%s, %+v) succeeded, want an error naming %v", tc.backend, tc.o, tc.unread)
			continue
		}
		for _, flag := range []string{"-parallel", "-procs", "-chunk", "-listen", "-lease", "-journal"} {
			if named, want := strings.Contains(err.Error(), flag), slices.Contains(tc.unread, flag); named != want {
				t.Errorf("NewBackendOptions(%s, %+v): error names %s = %v, want %v: %v", tc.backend, tc.o, flag, named, want, err)
			}
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
