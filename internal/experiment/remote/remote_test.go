package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// The unit tests run against a tiny registered spec: shard i's value is
// a pure function of i, like every real spec.
func init() {
	experiment.Register(&experiment.Spec{
		Name: "remote-test",
		Plan: func(p results.Params) (int, error) { return p.Trials, nil },
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			return float64(i*i) + float64(p.Seed), nil
		},
		NewShard: func() any { return new(float64) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			return nil, fmt.Errorf("unit tests aggregate by hand")
		},
	})
}

func testSpec(t *testing.T) *experiment.Spec {
	t.Helper()
	spec, err := experiment.Lookup("remote-test")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// startCoordinator serves a coordinator over httptest and returns it
// with its base URL.
func startCoordinator(t *testing.T, spec *experiment.Spec, p results.Params, n int, cfg Config) (*Coordinator, string) {
	t.Helper()
	coord, err := NewCoordinator(spec, p, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return coord, srv.URL
}

// runToken fetches the coordinator's per-run token from /job.
func runToken(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/job")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job.Run
}

// runGoroutineWorkers drains a coordinator with n in-process RunWorker
// goroutines — the httptest configuration: real HTTP over loopback, no
// process spawning.
func runGoroutineWorkers(t *testing.T, url string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), url, io.Discard)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// TestHTTPWorkerEquivalence is the httptest-based remote equivalence
// sweep: every real experiment at its committed baseline parameters,
// served by 1/2/3 HTTP workers at varying chunk sizes, must hash
// byte-identically to the committed PR 2 baseline records.
func TestHTTPWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-trial sweeps")
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
			n, err := spec.Plan(params)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct{ workers, chunk int }{
				{1, 0}, {2, 1}, {3, 2}, {2, 5},
			} {
				coord, url := startCoordinator(t, spec, params, n, Config{Chunk: tc.chunk})
				runGoroutineWorkers(t, url, tc.workers)
				shards, err := coord.Values()
				if err != nil {
					t.Fatalf("workers=%d chunk=%d: %v", tc.workers, tc.chunk, err)
				}
				rec, err := spec.Aggregate(params, shards)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Hash != committed {
					t.Errorf("workers=%d chunk=%d: hash %.12s != committed baseline %.12s",
						tc.workers, tc.chunk, rec.Hash, committed)
				}
			}
		})
	}
}

// committedBaselineHash loads the PR 2 baseline record's signature.
func committedBaselineHash(t *testing.T, exp string) string {
	t.Helper()
	path := filepath.Join("..", "..", "results", "testdata", "baseline", exp+".jsonl")
	recs, err := results.ReadFile(path)
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if len(recs) == 0 {
		t.Fatalf("committed baseline %s is empty", path)
	}
	return recs[len(recs)-1].Hash
}

// post sends one JSON document and decodes the response into out when
// the status is 2xx, returning the status either way.
func postDoc(t *testing.T, url string, doc any, out any) int {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return postBytes(t, url, append(raw, '\n'), out)
}

func postBytes(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

func grantLease(t *testing.T, url, worker string) Lease {
	t.Helper()
	var l Lease
	if status := postDoc(t, url+"/lease", LeaseRequest{Worker: worker, Run: runToken(t, url)}, &l); status != http.StatusOK {
		t.Fatalf("lease: status %d", status)
	}
	return l
}

// encodeValue marshals the remote-test spec's shard value for a shard.
func encodeValue(t *testing.T, p results.Params, shard int) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(float64(shard*shard) + float64(p.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fakeClock is a mutex-guarded test clock: HTTP handlers read it from
// server goroutines while the test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestLeaseExpiryReissue: an unrenewed lease's unfinished shards go back
// in the queue and are granted to the next asker; shards completed under
// the expired lease stay completed.
func TestLeaseExpiryReissue(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	p := results.Params{Trials: 4, Seed: 7}
	spec := testSpec(t)
	coord, url := startCoordinator(t, spec, p, 4, Config{Chunk: 4, Lease: time.Second, Now: clock.Now})

	first := grantLease(t, url, "doomed")
	if first.Start != 0 || first.End != 4 {
		t.Fatalf("first lease = [%d,%d), want [0,4)", first.Start, first.End)
	}
	// The doomed worker completes shard 1, then stalls past its TTL.
	var ack ResultAck
	if status := postDoc(t, url+"/results", ResultLine{Run: first.Run, Lease: first.ID, ShardLine: experiment.ShardLine{Shard: 1, Value: encodeValue(t, p, 1)}}, &ack); status != http.StatusOK {
		t.Fatalf("result: status %d", status)
	}

	// Before expiry there is nothing in the queue, but the doomed grant
	// is in flight: an idle worker gets a speculative backup of its
	// undone remainder (shards 0, 2, 3 — bounding span [0,4)) instead of
	// a Wait. This vulture then stalls too, so expiry still plays out.
	bk := grantLease(t, url, "vulture")
	if !bk.Backup || bk.Start != 0 || bk.End != 4 {
		t.Fatalf("pre-expiry lease = %+v, want a backup of [0,4)", bk)
	}
	clock.Advance(2 * time.Second)
	// After expiry — the primary and its backup both lapsed — the
	// unfinished shards are re-issued exactly once, as contiguous
	// sub-spans around the completed shard 1: [0,1) then [2,4). Two
	// distinct workers ask — a re-poll from one worker would
	// idempotently return its own unstarted grant.
	a := grantLease(t, url, "vulture-a")
	b := grantLease(t, url, "vulture-b")
	if a.Start != 0 || a.End != 1 || b.Start != 2 || b.End != 4 {
		t.Fatalf("re-issued spans [%d,%d) [%d,%d), want [0,1) [2,4)", a.Start, a.End, b.Start, b.End)
	}
	// Had the double expiry requeued the span twice, a third asker would
	// be handed a duplicate copy from the queue rather than a wait/backup
	// answer (both live grants are unstarted re-issues, not backup
	// targets with progress, so nothing else is grantable).
	if l := grantLease(t, url, "vulture-c"); !l.Wait && !l.Backup {
		t.Fatalf("post-reissue third lease = %+v, want wait or backup, not a queued duplicate", l)
	}

	// Renewing the expired lease must fail.
	if status := postDoc(t, url+"/renew", RenewRequest{ID: first.ID, Run: first.Run}, nil); status != http.StatusGone {
		t.Errorf("renew of expired lease: status %d, want %d", status, http.StatusGone)
	}

	// Completing the re-issued shards finishes the run; the late result
	// for shard 1 was kept.
	for _, shard := range []int{0, 2, 3} {
		id := a.ID
		if shard >= 2 {
			id = b.ID
		}
		if status := postDoc(t, url+"/results", ResultLine{Run: first.Run, Lease: id, ShardLine: experiment.ShardLine{Shard: shard, Value: encodeValue(t, p, shard)}}, &ack); status != http.StatusOK {
			t.Fatalf("shard %d: status %d", shard, status)
		}
	}
	select {
	case <-coord.Finished():
	default:
		t.Fatal("run not finished after all shards reported")
	}
	vals, err := coord.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := float64(i*i) + float64(p.Seed); v != want {
			t.Errorf("shard %d = %v, want %v", i, v, want)
		}
	}
}

// TestRenewExtendsLease: a renewed lease survives its original TTL.
func TestRenewExtendsLease(t *testing.T) {
	clock := &fakeClock{t: time.Unix(2000, 0)}
	p := results.Params{Trials: 2}
	_, url := startCoordinator(t, testSpec(t), p, 2, Config{Chunk: 2, Lease: time.Second, Now: clock.Now})

	l := grantLease(t, url, "steady")
	clock.Advance(900 * time.Millisecond)
	var renewed Renewal
	if status := postDoc(t, url+"/renew", RenewRequest{ID: l.ID, Run: l.Run}, &renewed); status != http.StatusOK {
		t.Fatalf("renew: status %d", status)
	}
	clock.Advance(900 * time.Millisecond)
	// 1.8s after grant but only 0.9s after renewal: the lease survived
	// its original TTL — the holder's re-poll gets the same unstarted
	// grant back instead of a fresh one carved from a requeued span, and
	// an idle stranger is offered only a speculative backup of it, never
	// the span itself off the queue.
	if got := grantLease(t, url, "steady"); got.ID != l.ID {
		t.Errorf("post-renew re-poll = %+v, want the held grant %s back", got, l.ID)
	}
	if got := grantLease(t, url, "vulture"); !got.Backup {
		t.Errorf("post-renew stranger lease = %+v, want a backup (lease still held)", got)
	}
}

// postShard streams one honest result line and asserts it is accepted.
func postShard(t *testing.T, url string, p results.Params, run, lease string, shard int) {
	t.Helper()
	var ack ResultAck
	if status := postDoc(t, url+"/results", ResultLine{Run: run, Lease: lease, ShardLine: experiment.ShardLine{Shard: shard, Value: encodeValue(t, p, shard)}}, &ack); status != http.StatusOK {
		t.Fatalf("shard %d: status %d", shard, status)
	}
}

// TestBackupAvoidsTTLCliff is the tail-latency acceptance test: with one
// of three workers stalled mid-chunk, the run finishes through a
// speculative backup lease while the stalled lease's TTL (an hour, on a
// fake clock that never advances past a second) is nowhere near expiry —
// the coordinator no longer waits out the cliff. Also pins the backup
// fences: one live backup per span, and an already-satisfied span is
// never a backup target.
func TestBackupAvoidsTTLCliff(t *testing.T) {
	clock := &fakeClock{t: time.Unix(3000, 0)}
	p := results.Params{Trials: 6, Seed: 2}
	spec := testSpec(t)
	coord, url := startCoordinator(t, spec, p, 6, Config{Chunk: 2, Lease: time.Hour, Now: clock.Now})

	la := grantLease(t, url, "alpha") // [0,2)
	lb := grantLease(t, url, "beta")  // [2,4)
	lc := grantLease(t, url, "gamma") // [4,6)
	if la.Start != 0 || lb.Start != 2 || lc.Start != 4 {
		t.Fatalf("grants [%d %d %d], want [0 2 4]", la.Start, lb.Start, lc.Start)
	}
	postShard(t, url, p, la.Run, la.ID, 0)
	postShard(t, url, p, la.Run, la.ID, 1)
	postShard(t, url, p, lc.Run, lc.ID, 4)
	postShard(t, url, p, lc.Run, lc.ID, 5)
	// beta completes shard 2, then stalls mid-chunk with shard 3 undone.
	postShard(t, url, p, lb.Run, lb.ID, 2)

	clock.Advance(time.Second) // far from the one-hour cliff
	// alpha, idle again, asks for more: the queue is empty, so it gets a
	// speculative backup of beta's undone remainder [3,4) — never a Wait.
	bk := grantLease(t, url, "alpha")
	if !bk.Backup || bk.Start != 3 || bk.End != 4 {
		t.Fatalf("idle-worker lease = %+v, want a backup of [3,4)", bk)
	}
	// One backup per span: a fourth worker is told to wait, not handed a
	// third copy.
	if l := grantLease(t, url, "delta"); !l.Wait {
		t.Fatalf("second idle lease = %+v, want wait (span already backed up)", l)
	}
	// The backup's result finishes the run with the stalled lease still
	// hours from expiry.
	postShard(t, url, p, bk.Run, bk.ID, 3)
	select {
	case <-coord.Finished():
	default:
		t.Fatal("run not finished after the backup result landed")
	}
	vals, err := coord.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := float64(i*i) + float64(p.Seed); v != want {
			t.Errorf("shard %d = %v, want %v", i, v, want)
		}
	}
	st := coord.Stats()
	if st.BackupsIssued != 1 || st.BackupsWon != 1 || st.BackupsWasted != 0 {
		t.Errorf("backup counters issued/won/wasted = %d/%d/%d, want 1/1/0", st.BackupsIssued, st.BackupsWon, st.BackupsWasted)
	}
	// beta's straggler copy of shard 3 arrives late: acknowledged
	// idempotently, and not counted against the backup.
	postShard(t, url, p, lb.Run, lb.ID, 3)
	if st := coord.Stats(); st.BackupsWasted != 0 {
		t.Errorf("primary straggler counted as wasted backup: %+v", st)
	}
}

// TestBackupDuplicateWasted: when the primary wins a shard the backup
// also ran, the backup's byte-equal duplicate is acknowledged and
// counted as wasted speculation; a divergent duplicate from a backup is
// still the 409 determinism tripwire.
func TestBackupDuplicateWasted(t *testing.T) {
	p := results.Params{Trials: 3, Seed: 11}
	coord, url := startCoordinator(t, testSpec(t), p, 3, Config{Chunk: 3})
	prim := grantLease(t, url, "prim")
	postShard(t, url, p, prim.Run, prim.ID, 0) // started; 1,2 undone
	bk := grantLease(t, url, "spec")
	if !bk.Backup || bk.Start != 1 || bk.End != 3 {
		t.Fatalf("backup lease = %+v, want backup of [1,3)", bk)
	}
	// Primary lands shard 1 first; the backup's copy is wasted.
	postShard(t, url, p, prim.Run, prim.ID, 1)
	postShard(t, url, p, bk.Run, bk.ID, 1)
	if st := coord.Stats(); st.BackupsIssued != 1 || st.BackupsWon != 0 || st.BackupsWasted != 1 {
		t.Errorf("backup counters issued/won/wasted = %d/%d/%d, want 1/0/1", st.BackupsIssued, st.BackupsWon, st.BackupsWasted)
	}
	// A forged divergent copy from the backup fails the run.
	if status := postDoc(t, url+"/results", ResultLine{Run: bk.Run, Lease: bk.ID, ShardLine: experiment.ShardLine{Shard: 1, Value: json.RawMessage("424242")}}, nil); status != http.StatusConflict {
		t.Errorf("divergent backup duplicate: status %d, want %d", status, http.StatusConflict)
	}
	if _, err := coord.Values(); err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Errorf("Values() = %v, want determinism violation", err)
	}
}

// TestAbandonedGrantRelease pins the abandoned-grant bugfix: a worker
// that starts a chunk, abandons it (the transport-error fallback) and
// re-polls /lease used to get fresh work while its old lease kept the
// abandoned shards unserveable for the full TTL. Now the re-poll
// releases the undone remainder first.
func TestAbandonedGrantRelease(t *testing.T) {
	clock := &fakeClock{t: time.Unix(4000, 0)}
	p := results.Params{Trials: 4, Seed: 9}
	coord, url := startCoordinator(t, testSpec(t), p, 4, Config{Chunk: 4, Lease: time.Hour, Now: clock.Now})

	l1 := grantLease(t, url, "flaky")
	if l1.Start != 0 || l1.End != 4 {
		t.Fatalf("first grant [%d,%d), want [0,4)", l1.Start, l1.End)
	}
	postShard(t, url, p, l1.Run, l1.ID, 0) // started
	clock.Advance(time.Second)             // nowhere near the cliff
	// The worker abandoned the chunk and asks again: the old lease's
	// remainder [1,4) must come back immediately as a regular grant —
	// not the same lease, not a backup, and not a TTL-long stall.
	l2 := grantLease(t, url, "flaky")
	if l2.ID == l1.ID || l2.Backup || l2.Wait || l2.Start != 1 || l2.End != 4 {
		t.Fatalf("re-poll after abandonment = %+v, want a fresh grant of [1,4)", l2)
	}
	// The abandoned lease is gone: renewing it fails...
	if status := postDoc(t, url+"/renew", RenewRequest{ID: l1.ID, Run: l1.Run}, nil); status != http.StatusGone {
		t.Errorf("renew of released lease: status %d, want %d", status, http.StatusGone)
	}
	// ...but a straggler result it already computed is still accepted
	// (issued spans survive release, like expiry).
	postShard(t, url, p, l1.Run, l1.ID, 1)
	for _, shard := range []int{2, 3} {
		postShard(t, url, p, l2.Run, l2.ID, shard)
	}
	select {
	case <-coord.Finished():
	default:
		t.Fatal("run not finished")
	}
	if _, err := coord.Values(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerStatePruned pins the state-leak bugfix: churning through
// many short-lived workers must not grow byWorker without bound — a
// swept worker's entry goes with its last lease.
func TestWorkerStatePruned(t *testing.T) {
	clock := &fakeClock{t: time.Unix(5000, 0)}
	p := results.Params{Trials: 64, Seed: 1}
	coord, url := startCoordinator(t, testSpec(t), p, 64, Config{Chunk: 1, Lease: time.Second, Now: clock.Now})

	const churn = 20
	for i := 0; i < churn; i++ {
		w := fmt.Sprintf("ephemeral-%d", i)
		l := grantLease(t, url, w)
		if l.Wait || l.Done {
			t.Fatalf("worker %s got no grant: %+v", w, l)
		}
		clock.Advance(100 * time.Millisecond)
		if status := postDoc(t, url+"/renew", RenewRequest{ID: l.ID, Run: l.Run}, nil); status != http.StatusOK {
			t.Fatalf("renew %s: status %d", w, status)
		}
		postShard(t, url, p, l.Run, l.ID, l.Start)
		// ...and the worker vanishes; its lease expires.
		clock.Advance(3 * time.Second)
	}
	// One live worker remains after the final sweep.
	last := grantLease(t, url, "survivor")
	if last.Wait || last.Done {
		t.Fatalf("survivor got no grant: %+v", last)
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if len(coord.byWorker) > 1 {
		t.Errorf("byWorker holds %d entries after churn, want <= 1", len(coord.byWorker))
	}
	if len(coord.leases) > 1 {
		t.Errorf("%d leases outstanding after churn, want <= 1", len(coord.leases))
	}
}

// TestStatsEndpoint: GET /stats serves a JSON snapshot whose progress,
// lease and backup fields track the run.
func TestStatsEndpoint(t *testing.T) {
	p := results.Params{Trials: 4, Seed: 6}
	_, url := startCoordinator(t, testSpec(t), p, 4, Config{Chunk: 4})
	prim := grantLease(t, url, "prim")
	postShard(t, url, p, prim.Run, prim.ID, 0)
	postShard(t, url, p, prim.Run, prim.ID, 1)
	bk := grantLease(t, url, "spec")
	if !bk.Backup || bk.Start != 2 || bk.End != 4 {
		t.Fatalf("second lease = %+v, want backup of [2,4)", bk)
	}
	postShard(t, url, p, bk.Run, bk.ID, 2)
	postShard(t, url, p, bk.Run, bk.ID, 3)

	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Run != prim.Run {
		t.Errorf("stats run = %q, want %q", st.Run, prim.Run)
	}
	if st.Shards != 4 || st.Done != 4 || st.Remaining != 0 {
		t.Errorf("stats progress = %d/%d/%d, want shards 4 done 4 remaining 0", st.Shards, st.Done, st.Remaining)
	}
	if st.Leases != 2 || st.BackupLeases != 1 {
		t.Errorf("stats leases = %d (backup %d), want 2 (1)", st.Leases, st.BackupLeases)
	}
	if st.BackupsIssued != 1 || st.BackupsWon != 2 {
		t.Errorf("stats backups issued/won = %d/%d, want 1/2", st.BackupsIssued, st.BackupsWon)
	}
}

// TestResultRejection pins the coordinator's hard validation: each bad
// /results body is rejected with the right status and leaves shard state
// untouched.
func TestResultRejection(t *testing.T) {
	p := results.Params{Trials: 3}
	for _, tc := range []struct {
		name   string
		body   func(t *testing.T, l Lease) []byte
		status int
	}{
		{"malformed-json", func(t *testing.T, l Lease) []byte {
			return []byte("{this is not json\n")
		}, http.StatusBadRequest},
		{"unknown-lease", func(t *testing.T, l Lease) []byte {
			raw, _ := json.Marshal(ResultLine{Run: l.Run, Lease: "L999", ShardLine: experiment.ShardLine{Shard: 0, Value: encodeValue(t, p, 0)}})
			return append(raw, '\n')
		}, http.StatusGone},
		{"out-of-range-shard", func(t *testing.T, l Lease) []byte {
			raw, _ := json.Marshal(ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 99, Value: encodeValue(t, p, 0)}})
			return append(raw, '\n')
		}, http.StatusBadRequest},
		{"corrupt-payload", func(t *testing.T, l Lease) []byte {
			raw, _ := json.Marshal(ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 0, Value: json.RawMessage(`"banana"`)}})
			return append(raw, '\n')
		}, http.StatusBadRequest},
		{"empty-value", func(t *testing.T, l Lease) []byte {
			raw, _ := json.Marshal(ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 0}})
			return append(raw, '\n')
		}, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, url := startCoordinator(t, testSpec(t), p, 3, Config{Chunk: 3})
			l := grantLease(t, url, "naughty")
			if status := postBytes(t, url+"/results", tc.body(t, l), nil); status != tc.status {
				t.Errorf("status %d, want %d", status, tc.status)
			}
			if _, err := coord.Values(); err == nil {
				t.Error("rejected result completed the run")
			}
			select {
			case <-coord.Finished():
				t.Error("rejected result finished the run")
			default:
			}
		})
	}
}

// TestDuplicateResults: equal duplicate bytes are acknowledged
// idempotently (re-issued leases make them inevitable); unequal bytes
// for a done shard are a determinism violation that fails the run.
func TestDuplicateResults(t *testing.T) {
	p := results.Params{Trials: 2, Seed: 3}
	coord, url := startCoordinator(t, testSpec(t), p, 2, Config{Chunk: 2})
	l := grantLease(t, url, "dup")

	line := ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 0, Value: encodeValue(t, p, 0)}}
	var ack ResultAck
	if status := postDoc(t, url+"/results", line, &ack); status != http.StatusOK {
		t.Fatalf("first post: status %d", status)
	}
	if status := postDoc(t, url+"/results", line, &ack); status != http.StatusOK || ack.Accepted != 1 {
		t.Fatalf("equal duplicate: status %d ack %+v, want 200/accepted", status, ack)
	}

	bad := ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 0, Value: json.RawMessage("12345")}}
	if status := postDoc(t, url+"/results", bad, nil); status != http.StatusConflict {
		t.Fatalf("mismatched duplicate: status %d, want %d", status, http.StatusConflict)
	}
	select {
	case <-coord.Finished():
	default:
		t.Fatal("determinism violation did not finish (fail) the run")
	}
	if _, err := coord.Values(); err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Errorf("Values() error = %v, want determinism violation", err)
	}
}

// TestStragglerAfterCompletion: faults arriving after the last shard
// landed — a mismatched duplicate or an error line from a re-issued
// lease's straggler — are rejected per line but must not panic the
// handler, fail a completed run, or close the finished channel twice.
func TestStragglerAfterCompletion(t *testing.T) {
	p := results.Params{Trials: 2, Seed: 5}
	coord, url := startCoordinator(t, testSpec(t), p, 2, Config{Chunk: 2})
	l := grantLease(t, url, "fast")
	for shard := 0; shard < 2; shard++ {
		var ack ResultAck
		if status := postDoc(t, url+"/results", ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: shard, Value: encodeValue(t, p, shard)}}, &ack); status != http.StatusOK {
			t.Fatalf("shard %d: status %d", shard, status)
		}
	}
	select {
	case <-coord.Finished():
	default:
		t.Fatal("run not finished")
	}

	// A forged duplicate after completion: rejected with 409, run stays
	// successful.
	forged := ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 0, Value: json.RawMessage("999")}}
	if status := postDoc(t, url+"/results", forged, nil); status != http.StatusConflict {
		t.Errorf("post-completion forged duplicate: status %d, want %d", status, http.StatusConflict)
	}
	// A late error line after completion: acknowledged, run stays
	// successful.
	late := ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 1, Err: "late boom"}}
	if status := postDoc(t, url+"/results", late, nil); status != http.StatusOK {
		t.Errorf("post-completion error line: status %d, want 200", status)
	}
	if _, err := coord.Values(); err != nil {
		t.Errorf("completed run tainted by post-completion faults: %v", err)
	}
}

// TestShardErrorFailsRun: a streamed shard failure fails the run and
// subsequent lease polls say done, sending workers home.
func TestShardErrorFailsRun(t *testing.T) {
	p := results.Params{Trials: 2}
	coord, url := startCoordinator(t, testSpec(t), p, 2, Config{Chunk: 1})
	l := grantLease(t, url, "broken")
	line := ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 0, Err: "shard exploded"}}
	if status := postDoc(t, url+"/results", line, nil); status != http.StatusOK {
		t.Fatalf("error line: status %d", status)
	}
	if _, err := coord.Values(); err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("Values() error = %v, want shard failure", err)
	}
	if got := grantLease(t, url, "next"); !got.Done {
		t.Errorf("post-failure lease = %+v, want done", got)
	}
}

// TestRemoteBackendViaFactory: the factory registration resolves
// "remote" and a full engine run over the backend matches an in-process
// run of the same spec.
func TestRemoteBackendViaFactory(t *testing.T) {
	b, err := experiment.NewBackendOptions("remote", experiment.BackendOptions{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "remote" {
		t.Fatalf("backend name = %q", b.Name())
	}
	if _, err := experiment.NewBackendOptions("carrier-pigeon", experiment.BackendOptions{}); err == nil {
		t.Error("unknown backend accepted")
	}
	names := experiment.BackendNames()
	want := []string{"inprocess", "remote", "subprocess"}
	if len(names) != len(want) {
		t.Fatalf("BackendNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BackendNames() = %v, want %v", names, want)
		}
	}
}

// TestCopyPrefixedLines pins the framing primitive: every line gets the
// prefix, and a final unterminated line (a crashing worker's last words)
// is still emitted.
func TestCopyPrefixedLines(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	copyPrefixedLines(&buf, &mu, "[worker 3] ", strings.NewReader("alpha\nbeta\n\ngamma"))
	want := "[worker 3] alpha\n[worker 3] beta\n[worker 3] \n[worker 3] gamma\n"
	if buf.String() != want {
		t.Errorf("framed output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestCopyPrefixedLinesConcurrent: two sources sharing one mutex and
// destination never interleave mid-line — the bug this framing fixes.
func TestCopyPrefixedLinesConcurrent(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	const lines = 200
	src := func(id int) string {
		var sb strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&sb, "worker %d line %d\n", id, i)
		}
		return sb.String()
	}
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			copyPrefixedLines(&buf, &mu, fmt.Sprintf("[worker %d] ", id), strings.NewReader(src(id)))
		}(id)
	}
	wg.Wait()

	framed := regexp.MustCompile(`^\[worker ([01])\] worker ([01]) line \d+$`)
	got := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(got) != 2*lines {
		t.Fatalf("%d framed lines, want %d", len(got), 2*lines)
	}
	for _, line := range got {
		m := framed.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed framed line %q", line)
		}
		if m[1] != m[2] {
			t.Errorf("line %q framed under the wrong worker", line)
		}
	}
}

// TestCopyPrefixedLinesDrainsAfterLongLine: a line over the 1 MiB cap
// ends the framing with one truncation notice, but src is still read to
// EOF, so a worker that keeps writing stderr after such a line never
// blocks on a full pipe.
func TestCopyPrefixedLinesDrainsAfterLongLine(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() // unblocks the writer if the copy stopped reading
	wrote := make(chan error, 1)
	go func() {
		_, err := w.Write(append(bytes.Repeat([]byte{'x'}, 2<<20), '\n'))
		for n := 0; err == nil && n < 220<<10; {
			var k int
			k, err = fmt.Fprintf(w, "short line %d\n", n)
			n += k
		}
		w.Close()
		wrote <- err
	}()
	var buf bytes.Buffer
	var mu sync.Mutex
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		copyPrefixedLines(&buf, &mu, "[worker 0] ", r)
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer still blocked 10s after its 2 MiB line: the pipe is no longer read")
	}
	<-copied
	if n := strings.Count(buf.String(), "(stderr truncated: "); n != 1 {
		t.Errorf("%d truncation notices, want 1:\n%.200s", n, buf.String())
	}
}

// TestShardRunnerStops pins the worker's serial shard loop: it stops at
// the first failing shard, after emitting that shard's error line, and
// checks its context before each shard, so a chunk whose lease was lost
// (its context cancelled) runs no further shard.
func TestShardRunnerStops(t *testing.T) {
	for _, tc := range []struct {
		exp      string
		cancelAt int // cancel the context once this shard's line is emitted (-1 = never)
		lines    string
		err      string
	}{
		{"remote-test-fail", -1, "0 1 2 3:shard 3 exploded", "shard 3 exploded"},
		{"remote-test", 1, "0 1", context.Canceled.Error()},
	} {
		r, err := newShardRunner(tc.exp, results.Params{}, "test", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var lines []string
		err = r.run(ctx, span{Start: 0, End: 8}, func(sl experiment.ShardLine) error {
			line := fmt.Sprint(sl.Shard)
			if sl.Err != "" {
				line += ":" + sl.Err
			}
			lines = append(lines, line)
			if sl.Shard == tc.cancelAt {
				cancel()
			}
			return nil
		})
		cancel()
		if got := strings.Join(lines, " "); got != tc.lines || err == nil || err.Error() != tc.err {
			t.Errorf("%s: lines %q, err %v; want lines %q, err %q", tc.exp, got, err, tc.lines, tc.err)
		}
	}
}
