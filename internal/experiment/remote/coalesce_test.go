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
// round trip.
func init() {
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

// TestResultsCoalesce: shards that finish while a POST is in flight ride
// together in the next one. Figure 7 at its baseline params through two
// RunWorker goroutines, with every /results round trip slowed to 20ms,
// must take fewer POSTs than shards and still hash to the committed
// baseline.
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
	runGoroutineWorkers(t, url, 2, 2)
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
	for _, b := range bodies {
		lines += b.lines
	}
	if len(bodies) >= n {
		t.Errorf("%d /results posts for %d shards, want fewer (lines per post: %v)", len(bodies), n, bodies)
	}
	if lines < n {
		t.Errorf("%d result lines posted for %d shards", lines, n)
	}
	st := coord.Stats()
	if st.ResultPosts != len(bodies) || st.ResultLines != lines {
		t.Errorf("stats result posts/lines = %d/%d, want %d/%d", st.ResultPosts, st.ResultLines, len(bodies), lines)
	}
}

// TestResultsPostAlone: shards slower than a POST round trip find the
// sender idle, so each result is posted on its own as soon as it
// finishes — coalescing never holds a result back. The worker also waits
// for each chunk's last ack before it polls /lease again: a poll while a
// body is still in flight would release finished shards for re-execution.
func TestResultsPostAlone(t *testing.T) {
	spec, err := experiment.Lookup("remote-test-slow")
	if err != nil {
		t.Fatal(err)
	}
	p := results.Params{Trials: 6, Jitter: 50}
	tap := &resultTap{latency: 10 * time.Millisecond}
	coord, url := startTappedCoordinator(t, spec, p, p.Trials, Config{Chunk: p.Trials / 2}, tap)
	// A worker that ends chunks before their last ack can re-run the
	// released tail forever; the deadline turns that into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := RunWorker(ctx, url, 0, io.Discard); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if _, err := coord.Values(); err != nil {
		t.Fatal(err)
	}
	bodies, _ := tap.snapshot()
	if len(bodies) != p.Trials {
		t.Errorf("%d /results posts for %d slow shards, want one each", len(bodies), p.Trials)
	}
	for i, b := range bodies {
		if b.lines != 1 {
			t.Errorf("post %d carried %d lines, want 1", i, b.lines)
		}
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if tap.overlaps != 0 {
		t.Errorf("%d /lease polls while a /results body was in flight: the chunk ended before its last ack", tap.overlaps)
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
	runGoroutineWorkers(t, url, 1, 0)
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

// resultBody encodes one /results body carrying the honest result of
// each shard under a lease.
func resultBody(t *testing.T, p results.Params, l Lease, shards ...int) []byte {
	t.Helper()
	var body []byte
	for _, s := range shards {
		raw, err := json.Marshal(ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: s, Value: encodeValue(t, p, s)}})
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, raw...), '\n')
	}
	return body
}

// TestBatchedProgressEstimate pins the progress fold under batching: a
// body of k lines is one observation of k shards in the time since the
// lease's previous body. Bodies of k lines dt apart must give the same
// cost estimate as single-line bodies dt/k apart, and the first body
// under a lease — whatever its size — only anchors.
func TestBatchedProgressEstimate(t *testing.T) {
	const k, dt = 4, 40 * time.Millisecond
	p := results.Params{Trials: 64, Seed: 2}
	costEWMA := func(coord *Coordinator) time.Duration {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return coord.costEWMA
	}

	clock := &fakeClock{t: time.Unix(8000, 0)}
	batched, url := startCoordinator(t, testSpec(t), p, 64, Config{Chunk: 64, Lease: time.Hour, Now: clock.Now})
	l := grantLease(t, url, "batcher")
	var ack ResultAck
	if status := postBytes(t, url+"/results", resultBody(t, p, l, 0, 1, 2, 3), &ack); status != http.StatusOK || ack.Accepted != k {
		t.Fatalf("anchor body: status %d ack %+v", status, ack)
	}
	if cost := costEWMA(batched); cost != 0 {
		t.Fatalf("first body fed the cost EWMA (%v); it must only anchor", cost)
	}
	for b := 1; b < 4; b++ {
		clock.Advance(dt)
		if status := postBytes(t, url+"/results", resultBody(t, p, l, k*b, k*b+1, k*b+2, k*b+3), &ack); status != http.StatusOK || ack.Accepted != k {
			t.Fatalf("body %d: status %d ack %+v", b, status, ack)
		}
	}
	cost := costEWMA(batched)
	if cost != dt/k {
		t.Errorf("batched cost EWMA = %v, want dt/k = %v", cost, dt/k)
	}

	clock2 := &fakeClock{t: time.Unix(9000, 0)}
	single, url2 := startCoordinator(t, testSpec(t), p, 64, Config{Chunk: 64, Lease: time.Hour, Now: clock2.Now})
	l2 := grantLease(t, url2, "single")
	postShard(t, url2, p, l2.Run, l2.ID, 0)
	for s := 1; s <= 3*k; s++ {
		clock2.Advance(dt / k)
		postShard(t, url2, p, l2.Run, l2.ID, s)
	}
	if cost2 := costEWMA(single); cost2 != cost {
		t.Errorf("single-line bodies dt/k apart: cost %v; batched gave %v", cost2, cost)
	}
	if st := batched.Stats(); st.ResultPosts != 4 || st.ResultLines != 4*k {
		t.Errorf("stats result posts/lines = %d/%d, want 4/%d", st.ResultPosts, st.ResultLines, 4*k)
	}
}

// TestDuplicatesCountAsProgress: byte-equal duplicates are shards the
// worker ran, so a body of them is progress. A primary racing its backup
// posts mostly duplicates; counting only new completions would read it
// as a stalled worker.
func TestDuplicatesCountAsProgress(t *testing.T) {
	clock := &fakeClock{t: time.Unix(11000, 0)}
	p := results.Params{Trials: 8, Seed: 6}
	coord, url := startCoordinator(t, testSpec(t), p, 8, Config{Chunk: 8, Lease: time.Hour, Now: clock.Now})
	prim := grantLease(t, url, "prim")
	postShard(t, url, p, prim.Run, prim.ID, 0) // anchor
	bk := grantLease(t, url, "spec")
	if !bk.Backup {
		t.Fatalf("second lease = %+v, want a backup", bk)
	}
	postBytes(t, url+"/results", resultBody(t, p, bk, 1, 2), nil) // the backup lands 1 and 2 first
	clock.Advance(20 * time.Millisecond)
	var ack ResultAck
	if status := postBytes(t, url+"/results", resultBody(t, p, prim, 1, 2), &ack); status != http.StatusOK || ack.Accepted != 2 {
		t.Fatalf("duplicate body: status %d ack %+v", status, ack)
	}
	coord.mu.Lock()
	cost := coord.costEWMA
	coord.mu.Unlock()
	if cost != 10*time.Millisecond {
		t.Errorf("cost EWMA after 2 duplicates in 20ms = %v, want 10ms", cost)
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
