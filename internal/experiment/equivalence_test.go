// The equivalence sweep lives in the external test package so it can
// exercise the remote backend too: internal/experiment/remote imports
// internal/experiment, so an in-package test file could not import it
// back without a cycle.
package experiment_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/experiment/remote"
	"specinterference/internal/results"
)

// backendsUnderTest is the backend-configuration matrix the equivalence
// sweep runs: goroutine workers at 1 and 3, and re-exec'd subprocess
// workers and remote HTTP workers at 1 to 3 processes each. The
// determinism contract says every entry produces the same canonical
// signature.
func backendsUnderTest() []experiment.Backend {
	return []experiment.Backend{
		experiment.InProcess{Workers: 1},
		experiment.InProcess{Workers: 3},
		experiment.Subprocess{Procs: 1},
		experiment.Subprocess{Procs: 2},
		experiment.Subprocess{Procs: 3},
		remote.Remote{Procs: 1},
		remote.Remote{Procs: 2},
		remote.Remote{Procs: 3},
	}
}

// TestBackendEquivalence runs every experiment at the committed baseline
// parameters on every backend configuration and requires each record to
// be identical to the committed baseline record, so also to each other.
// This is the engine's core guarantee: the backend is purely a
// wall-clock knob, whether the shards ran on goroutines, local worker
// processes, or leased chunks over HTTP. It is also the byte-exact pin
// of every experiment's in-process result: a mismatch prints each moved
// value, and an intended change is refreshed with
// `go run ./cmd/resultstore baseline -dir internal/results/testdata/baseline`.
func TestBackendEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and full small-trial sweeps")
	}
	for _, exp := range results.Experiments() {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			params, err := results.BaselineParams(exp)
			if err != nil {
				t.Fatal(err)
			}
			committed := committedBaseline(t, exp)

			spec, err := experiment.Lookup(exp)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range backendsUnderTest() {
				rec, err := experiment.Run(context.Background(), spec, params, quiet(t, b), nil)
				if err != nil {
					t.Fatalf("%s %+v: %v", b.Name(), b, err)
				}
				if err := rec.Validate(); err != nil {
					t.Errorf("%s %+v: %v", b.Name(), b, err)
				}
				if d := results.Diff(committed, rec); d.Class != results.Identical {
					t.Errorf("%s %+v differs from the committed baseline:\n%s", b.Name(), b, d.Format())
				}
			}
		})
	}
}

// quiet routes a backend's stderr chatter (coordinator notices, worker
// banners) into the test log instead of the test runner's stderr.
func quiet(t *testing.T, b experiment.Backend) experiment.Backend {
	switch b := b.(type) {
	case remote.Remote:
		b.Stderr = testWriter{t}
		return b
	case experiment.Subprocess:
		b.Stderr = testWriter{t}
		return b
	}
	return b
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// committedBaseline loads the committed baseline record, the one
// committed copy of each experiment's result.
func committedBaseline(t *testing.T, exp string) *results.Record {
	t.Helper()
	path := filepath.Join("..", "results", "testdata", "baseline", exp+".jsonl")
	recs, err := results.ReadFile(path)
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if len(recs) == 0 {
		t.Fatalf("committed baseline %s is empty", path)
	}
	return recs[len(recs)-1]
}

// testGolden runs one experiment in-process, one worker per CPU, at the
// committed baseline parameters and requires the record to be identical
// to the committed baseline record. Unlike TestBackendEquivalence it
// runs under -short too, so every test run pins each experiment's
// result exactly; a mismatch prints each moved value.
func testGolden(t *testing.T, exp string) {
	params, err := results.BaselineParams(exp)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := experiment.Lookup(exp)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := experiment.Run(context.Background(), spec, params, experiment.InProcess{}, nil)
	if err != nil {
		t.Fatalf("Run(%s): %v", exp, err)
	}
	if d := results.Diff(committedBaseline(t, exp), rec); d.Class != results.Identical {
		t.Errorf("%s differs from the committed baseline:\n%s", exp, d.Format())
	}
}

func TestGoldenFigure7(t *testing.T)  { testGolden(t, results.ExpFigure7) }
func TestGoldenTable1(t *testing.T)   { testGolden(t, results.ExpTable1) }
func TestGoldenFigure11(t *testing.T) { testGolden(t, results.ExpFigure11) }
func TestGoldenFigure12(t *testing.T) { testGolden(t, results.ExpFigure12) }

func TestGoldenConcordance(t *testing.T) { testGolden(t, results.ExpConcordance) }

// TestSubprocessPayloadEquality goes beyond hashes for one experiment:
// the full canonical JSON must match across all three backends, catching
// any hash-collision paranoia and making diffs readable on failure.
func TestSubprocessPayloadEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec, err := experiment.Lookup("figure11")
	if err != nil {
		t.Fatal(err)
	}
	p := results.Params{PoCs: []string{"dcache", "icache"}, Bits: 3, Reps: []int{1, 3}, Seed: 9}
	in, err := experiment.Run(context.Background(), spec, p, experiment.InProcess{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inJSON, err := in.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []experiment.Backend{
		experiment.Subprocess{Procs: 3},
		remote.Remote{Procs: 2},
	} {
		rec, err := experiment.Run(context.Background(), spec, p, quiet(t, b), nil)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		recJSON, err := rec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(inJSON) != string(recJSON) {
			t.Errorf("canonical JSON diverged across backends:\n  inprocess: %s\n  %s: %s", inJSON, b.Name(), recJSON)
		}
	}
}

// TestShardErrorRemote: a shard that fails in the middle of a remote
// chunk fails the run with its own error, long before the lease TTL. A
// worker that never posted the failure line would leave the shard
// leased, unstarted, to whoever re-polls for it, and the run would never
// end. 64 shards make four-shard grants, so shard 3 ends the first
// chunk's second body. That the failure travels in that body, not a
// later re-lease, is pinned by the remote package's
// TestResultsShardFailure.
func TestShardErrorRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec, err := experiment.Lookup("test-fail")
	if err != nil {
		t.Fatal(err)
	}
	const lease = remote.DefaultLease
	ctx, cancel := context.WithTimeout(context.Background(), lease/2)
	defer cancel()
	start := time.Now()
	_, err = experiment.Run(ctx, spec, results.Params{Trials: 64}, quiet(t, remote.Remote{Procs: 2}), nil)
	if err == nil || !strings.Contains(err.Error(), "shard 3 exploded") {
		t.Fatalf("err = %v after %v, want shard 3's failure", err, time.Since(start))
	}
	if took := time.Since(start); took > lease/4 {
		t.Errorf("the shard failure took %v to fail the run, want well inside the %v lease", took, lease)
	}
}
