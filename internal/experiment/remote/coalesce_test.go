package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// remote-test-slow is remote-test with a per-shard sleep of Jitter
// milliseconds, so tests can pick shard times above or below a POST
// round trip. remote-test-fail is remote-test whose shard 3 fails.
func init() {
	experiment.Register(&experiment.Spec{
		Name: "remote-test-fail",
		Plan: func(p results.Params) (int, error) { return p.Trials, nil },
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			if i == 3 {
				return nil, fmt.Errorf("shard %d exploded", i)
			}
			return float64(i*i) + float64(p.Seed), nil
		},
		NewShard: func() any { return new(float64) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			return nil, fmt.Errorf("unit tests aggregate by hand")
		},
	})
	experiment.Register(&experiment.Spec{
		Name: "remote-test-slow",
		Plan: func(p results.Params) (int, error) { return p.Trials, nil },
		Run: func(ctx context.Context, _ any, p results.Params, i int) (any, error) {
			select {
			case <-time.After(time.Duration(p.Jitter) * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return float64(i*i) + float64(p.Seed), nil
		},
		NewShard: func() any { return new(float64) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			return nil, fmt.Errorf("unit tests aggregate by hand")
		},
	})
}

// tappedBody is one /results request as the tap saw it.
type tappedBody struct {
	lines  int
	leases []string // lease id of each line
	status int      // what the worker was answered
}

// resultTap wraps a coordinator handler and records every /results body:
// its line count and the leases its lines name, and how many /lease polls
// arrived while a /results request was in flight. It can slow each
// /results request down (a longer POST round trip) and answer one chosen
// body with 410 instead of forwarding it.
type resultTap struct {
	next    http.Handler
	latency time.Duration // added to every /results request
	goneAt  int           // 1-based /results body to answer 410 (0 = none)

	mu         sync.Mutex
	bodies     []tappedBody // guarded by mu
	leasePolls []int        // len(bodies) at each /lease request; guarded by mu
	inFlight   int          // /results requests being served; guarded by mu
	overlaps   int          // /lease polls that arrived while inFlight > 0; guarded by mu
}

func (tp *resultTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/lease":
		tp.mu.Lock()
		tp.leasePolls = append(tp.leasePolls, len(tp.bodies))
		if tp.inFlight > 0 {
			tp.overlaps++
		}
		tp.mu.Unlock()
	case "/results":
		tp.mu.Lock()
		tp.inFlight++
		tp.mu.Unlock()
		defer func() {
			tp.mu.Lock()
			tp.inFlight--
			tp.mu.Unlock()
		}()
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var b tappedBody
		for _, line := range bytes.Split(raw, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) == 0 {
				continue
			}
			var rl ResultLine
			json.Unmarshal(line, &rl)
			b.lines++
			b.leases = append(b.leases, rl.Lease)
		}
		time.Sleep(tp.latency)
		tp.mu.Lock()
		tp.bodies = append(tp.bodies, b)
		i := len(tp.bodies) - 1
		gone := i+1 == tp.goneAt
		tp.mu.Unlock()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if gone {
			writeJSON(rec, http.StatusGone, ResultAck{Error: "injected: lease gone"})
		} else {
			r.Body = io.NopCloser(bytes.NewReader(raw))
			tp.next.ServeHTTP(rec, r)
		}
		tp.mu.Lock()
		tp.bodies[i].status = rec.status
		tp.mu.Unlock()
		return
	}
	tp.next.ServeHTTP(w, r)
}

// snapshot copies the recorded bodies and lease polls.
func (tp *resultTap) snapshot() ([]tappedBody, []int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return append([]tappedBody(nil), tp.bodies...), append([]int(nil), tp.leasePolls...)
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// startTappedCoordinator serves a coordinator behind a resultTap.
func startTappedCoordinator(t *testing.T, spec *experiment.Spec, p results.Params, n int, cfg Config, tap *resultTap) (*Coordinator, string) {
	t.Helper()
	coord, err := NewCoordinator(spec, p, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	tap.next = coord.Handler()
	srv := httptest.NewServer(tap)
	t.Cleanup(srv.Close)
	return coord, srv.URL
}

// TestResultsCoalesce: a chunk's results reach the coordinator in at
// most two bodies, however fast its shards finish. Figure 7 at its
// baseline params through two RunWorker goroutines, with every /results
// round trip slowed to 20ms, must take at most two POSTs per granted
// lease and still hash to the committed baseline.
func TestResultsCoalesce(t *testing.T) {
	spec, err := experiment.Lookup(results.ExpFigure7)
	if err != nil {
		t.Fatal(err)
	}
	params, err := results.BaselineParams(results.ExpFigure7)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Plan(params)
	if err != nil {
		t.Fatal(err)
	}
	tap := &resultTap{latency: 20 * time.Millisecond}
	coord, url := startTappedCoordinator(t, spec, params, n, Config{Chunk: n / 2}, tap)
	runGoroutineWorkers(t, url, 2)
	shards, err := coord.Values()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := spec.Aggregate(params, shards)
	if err != nil {
		t.Fatal(err)
	}
	if want := committedBaselineHash(t, results.ExpFigure7); rec.Hash != want {
		t.Errorf("hash %.12s != committed baseline %.12s", rec.Hash, want)
	}
	bodies, _ := tap.snapshot()
	lines := 0
	perLease := map[string]int{}
	for _, b := range bodies {
		lines += b.lines
		perLease[b.leases[0]]++
	}
	for lease, posts := range perLease {
		if posts > 2 {
			t.Errorf("lease %s took %d /results posts, want at most 2 (bodies: %v)", lease, posts, bodies)
		}
	}
	if lines < n {
		t.Errorf("%d result lines posted for %d shards", lines, n)
	}
	st := coord.Stats()
	if st.ResultPosts != len(bodies) || st.ResultLines != lines {
		t.Errorf("stats result posts/lines = %d/%d, want %d/%d", st.ResultPosts, st.ResultLines, len(bodies), lines)
	}
}

// TestResultsPostAlone: a chunk's first result is posted alone, as soon
// as it exists, and the chunk's other results follow together in one
// body once the chunk is over — even when each shard is slower than a
// POST round trip. The worker also waits for each chunk's last ack
// before it polls /lease again: a poll while a body is still in flight
// would release finished shards for re-execution.
func TestResultsPostAlone(t *testing.T) {
	spec, err := experiment.Lookup("remote-test-slow")
	if err != nil {
		t.Fatal(err)
	}
	p := results.Params{Trials: 6, Jitter: 50}
	const chunk = 3
	tap := &resultTap{latency: 10 * time.Millisecond}
	coord, url := startTappedCoordinator(t, spec, p, p.Trials, Config{Chunk: chunk}, tap)
	// A worker that ends chunks before their last ack can re-run the
	// released tail forever; the deadline turns that into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := RunWorker(ctx, url, io.Discard); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if _, err := coord.Values(); err != nil {
		t.Fatal(err)
	}
	bodies, _ := tap.snapshot()
	if want := 2 * p.Trials / chunk; len(bodies) != want {
		t.Fatalf("%d /results posts for %d chunks, want %d (bodies: %v)", len(bodies), p.Trials/chunk, want, bodies)
	}
	for i := 0; i < len(bodies); i += 2 {
		head, tail := bodies[i], bodies[i+1]
		if head.lines != 1 || tail.lines != chunk-1 {
			t.Errorf("chunk %d posted %d then %d lines, want 1 then %d", i/2, head.lines, tail.lines, chunk-1)
		}
		for _, l := range tail.leases {
			if l != head.leases[0] {
				t.Errorf("chunk %d: body names lease %s, its first result %s", i/2, l, head.leases[0])
			}
		}
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if tap.overlaps != 0 {
		t.Errorf("%d /lease polls while a /results body was in flight: the chunk ended before its last ack", tap.overlaps)
	}
}

// TestResultsShardFailure: a shard that fails in mid-chunk reaches the
// coordinator in the chunk's second body, behind the results buffered
// before it, so the run fails under the chunk's one lease. A worker that
// dropped that body would fail the run only in the end: each re-lease of
// the remainder posts its first result alone, one shard further on, so
// the chunk would be re-run once per shard before the failing one.
func TestResultsShardFailure(t *testing.T) {
	spec, err := experiment.Lookup("remote-test-fail")
	if err != nil {
		t.Fatal(err)
	}
	p := results.Params{Trials: 8}
	tap := &resultTap{}
	coord, url := startTappedCoordinator(t, spec, p, p.Trials, Config{Chunk: p.Trials}, tap)
	runGoroutineWorkers(t, url, 1)
	if _, err := coord.Values(); err == nil || !strings.Contains(err.Error(), "shard 3 exploded") {
		t.Fatalf("Values() error = %v, want shard 3's failure", err)
	}
	bodies, _ := tap.snapshot()
	if len(bodies) != 2 || bodies[0].lines != 1 || bodies[1].lines != 3 {
		t.Fatalf("/results bodies %+v, want shard 0 alone, then shards 1-3 together", bodies)
	}
	for _, l := range bodies[1].leases {
		if l != bodies[0].leases[0] {
			t.Errorf("the failure's body names lease %s, the chunk's first result %s: the chunk was re-leased", l, bodies[0].leases[0])
		}
	}
}

// TestResultsGoneMidChunk: a 410 on a /results body mid-chunk makes the
// worker abandon the chunk — nothing more is posted under that lease —
// and rejoin through /lease, whose re-poll releases the abandoned
// remainder; the run still completes with every value right.
func TestResultsGoneMidChunk(t *testing.T) {
	spec, err := experiment.Lookup("remote-test-slow")
	if err != nil {
		t.Fatal(err)
	}
	p := results.Params{Trials: 16, Jitter: 5, Seed: 3}
	tap := &resultTap{goneAt: 2}
	coord, url := startTappedCoordinator(t, spec, p, p.Trials, Config{Chunk: 8}, tap)
	runGoroutineWorkers(t, url, 1)
	vals, err := coord.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := float64(i*i) + float64(p.Seed); v != want {
			t.Errorf("shard %d = %v, want %v", i, v, want)
		}
	}
	bodies, polls := tap.snapshot()
	if len(bodies) < 2 || bodies[1].status != http.StatusGone {
		t.Fatalf("second /results post was not answered 410: %+v", bodies)
	}
	gone := bodies[1].leases[0]
	for i, b := range bodies[2:] {
		for _, l := range b.leases {
			if l == gone {
				t.Errorf("post %d named lease %s after its 410: the chunk was not abandoned", i+2, gone)
			}
		}
	}
	rejoined := false
	for _, after := range polls {
		rejoined = rejoined || after >= 2
	}
	if !rejoined {
		t.Error("worker never polled /lease after the 410")
	}
}

// TestRunSummaryResults: the end-of-run summary reports result lines and
// posts after the existing fields, leaving the prefix tooling parses
// unchanged.
func TestRunSummaryResults(t *testing.T) {
	s := runSummary(Stats{
		Shards: 3000, BackupsIssued: 1, BackupsWon: 5, BackupsWasted: 7,
		ResultPosts: 1500, ResultLines: 3007,
	})
	const marker = "remote: run complete: "
	if !strings.HasPrefix(s, marker) {
		t.Fatalf("summary %q lacks the %q prefix", s, marker)
	}
	var shards, issued, won int
	if n, err := fmt.Sscanf(s[len(marker):], "%d shards; backups: %d issued, %d won", &shards, &issued, &won); n != 3 || err != nil ||
		shards != 3000 || issued != 1 || won != 5 {
		t.Errorf("prefix parse of %q = %d/%d/%d (%v)", s, shards, issued, won, err)
	}
	if want := "; results: 3007 lines in 1500 posts"; !strings.HasSuffix(s, want) {
		t.Errorf("summary %q does not end with %q", s, want)
	}
}
