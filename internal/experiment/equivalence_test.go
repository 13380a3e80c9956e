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
// sweep runs: goroutine workers, re-exec'd subprocess workers at several
// process counts and chunk sizes, and the remote HTTP backend at 1/2/3
// workers × varying lease chunk sizes. The determinism contract says
// every entry produces the same canonical signature.
func backendsUnderTest() []experiment.Backend {
	return []experiment.Backend{
		experiment.InProcess{Workers: 1},
		experiment.InProcess{Workers: 3},
		experiment.Subprocess{Procs: 1},
		experiment.Subprocess{Procs: 2, Chunk: 1},
		experiment.Subprocess{Procs: 3, Workers: 2, Chunk: 3},
		remote.Remote{Procs: 1, Chunk: 2},
		remote.Remote{Procs: 2, Chunk: 1},
		remote.Remote{Procs: 3, Workers: 2, Chunk: 4, Lease: 5 * time.Second},
	}
}

// TestBackendEquivalence runs every experiment at the committed baseline
// parameters on every backend configuration and requires the canonical
// signatures to be byte-identical — to each other and to the committed
// baseline records. This is the engine's core guarantee: the backend is
// purely a wall-clock knob, whether the shards ran on goroutines, local
// worker processes, or leased chunks over HTTP.
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
			committed := committedBaselineHash(t, exp)

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
				if rec.Hash != committed {
					t.Errorf("%s %+v: hash %.12s != committed baseline %.12s",
						b.Name(), b, rec.Hash, committed)
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

// committedBaselineHash loads the committed baseline record's signature.
func committedBaselineHash(t *testing.T, exp string) string {
	t.Helper()
	path := filepath.Join("..", "results", "testdata", "baseline", exp+".jsonl")
	recs, err := results.ReadFile(path)
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if len(recs) == 0 {
		t.Fatalf("committed baseline %s is empty", path)
	}
	return recs[len(recs)-1].Hash
}

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
		remote.Remote{Procs: 2, Chunk: 3},
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
// end. That the failure travels in the chunk's buffered second body, not
// a later re-lease, is pinned by the remote package's
// TestResultsShardFailure.
func TestShardErrorRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec, err := experiment.Lookup("test-fail")
	if err != nil {
		t.Fatal(err)
	}
	const lease = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), lease/2)
	defer cancel()
	start := time.Now()
	_, err = experiment.Run(ctx, spec, results.Params{Trials: 16}, quiet(t, remote.Remote{Procs: 2, Chunk: 8, Lease: lease}), nil)
	if err == nil || !strings.Contains(err.Error(), "shard 3 exploded") {
		t.Fatalf("err = %v after %v, want shard 3's failure", err, time.Since(start))
	}
	if took := time.Since(start); took > lease/4 {
		t.Errorf("the shard failure took %v to fail the run, want well inside the %v lease", took, lease)
	}
}
