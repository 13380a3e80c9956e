package remote

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// journalPath returns a per-test journal file location.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

// completeShards posts correct results for the given shards under one
// all-covering lease.
func completeShards(t *testing.T, url string, p results.Params, shards ...int) Lease {
	t.Helper()
	l := grantLease(t, url, "filler")
	for _, shard := range shards {
		var ack ResultAck
		line := ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: shard, Value: encodeValue(t, p, shard)}}
		if status := postDoc(t, url+"/results", line, &ack); status != http.StatusOK {
			t.Fatalf("shard %d: status %d", shard, status)
		}
	}
	return l
}

// TestJournalResume: kill-and-restart in miniature. A first coordinator
// journals a few shards and is dropped mid-run; a second one on the same
// journal replays them, serves only the remainder, and completes with
// the correct values.
func TestJournalResume(t *testing.T) {
	p := results.Params{Trials: 6, Seed: 3}
	spec := testSpec(t)
	path := journalPath(t)

	first, url := startCoordinator(t, spec, p, 6, Config{Chunk: 6, Journal: path})
	if first.Replayed() != 0 {
		t.Fatalf("fresh journal replayed %d shards", first.Replayed())
	}
	completeShards(t, url, p, 0, 1, 4)
	// ...and the first coordinator dies here. (Close stands in for the
	// process dying: journal writes land per line, and death releases
	// the journal lock just like Close does.)
	first.Close()

	second, url2 := startCoordinator(t, spec, p, 6, Config{Chunk: 6, Journal: path})
	if got := second.Replayed(); got != 3 {
		t.Fatalf("restart replayed %d shards, want 3", got)
	}
	// Only the remainder is served: the re-issued spans skip the
	// journaled shards 0, 1 and 4.
	a := grantLease(t, url2, "resumer-a")
	b := grantLease(t, url2, "resumer-b")
	if a.Start != 2 || a.End != 4 || b.Start != 5 || b.End != 6 {
		t.Fatalf("resumed grants [%d,%d) [%d,%d), want [2,4) [5,6)", a.Start, a.End, b.Start, b.End)
	}
	for _, shard := range []int{2, 3} {
		var ack ResultAck
		if status := postDoc(t, url2+"/results", ResultLine{Run: a.Run, Lease: a.ID, ShardLine: experiment.ShardLine{Shard: shard, Value: encodeValue(t, p, shard)}}, &ack); status != http.StatusOK {
			t.Fatalf("shard %d: status %d", shard, status)
		}
	}
	var ack ResultAck
	if status := postDoc(t, url2+"/results", ResultLine{Run: b.Run, Lease: b.ID, ShardLine: experiment.ShardLine{Shard: 5, Value: encodeValue(t, p, 5)}}, &ack); status != http.StatusOK {
		t.Fatalf("shard 5: status %d", status)
	}
	select {
	case <-second.Finished():
	default:
		t.Fatal("resumed run not finished after the remainder completed")
	}
	vals, err := second.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := float64(i*i) + float64(p.Seed); v != want {
			t.Errorf("shard %d = %v, want %v (journaled values must survive the restart)", i, v, want)
		}
	}
}

// TestJournalCompletedRun: a journal holding every shard makes the
// restarted coordinator start out finished — workers are sent home on
// their first poll and the values come straight from the journal.
func TestJournalCompletedRun(t *testing.T) {
	p := results.Params{Trials: 3, Seed: 9}
	spec := testSpec(t)
	path := journalPath(t)
	first, url := startCoordinator(t, spec, p, 3, Config{Chunk: 3, Journal: path})
	completeShards(t, url, p, 0, 1, 2)
	first.Close()

	second, url2 := startCoordinator(t, spec, p, 3, Config{Chunk: 3, Journal: path})
	select {
	case <-second.Finished():
	default:
		t.Fatal("fully journaled run did not start finished")
	}
	if l := grantLease(t, url2, "latecomer"); !l.Done {
		t.Errorf("lease on a fully journaled run = %+v, want done", l)
	}
	if _, err := second.Values(); err != nil {
		t.Errorf("Values() on a fully journaled run: %v", err)
	}
}

// TestJournalTornTail: a coordinator SIGKILLed mid-append leaves a
// partial final line; the restart drops the torn tail, keeps every
// intact entry, and new appends continue cleanly from there.
func TestJournalTornTail(t *testing.T) {
	p := results.Params{Trials: 4, Seed: 2}
	spec := testSpec(t)
	path := journalPath(t)
	first, url := startCoordinator(t, spec, p, 4, Config{Chunk: 4, Journal: path})
	completeShards(t, url, p, 0, 1)
	first.Close()

	// Simulate the kill mid-write: a trailing partial JSON line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"shard":2,"val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	second, url2 := startCoordinator(t, spec, p, 4, Config{Chunk: 4, Journal: path})
	if got := second.Replayed(); got != 2 {
		t.Fatalf("replayed %d shards, want 2 (torn tail dropped)", got)
	}
	completeShards(t, url2, p, 2, 3)
	if _, err := second.Values(); err != nil {
		t.Fatal(err)
	}
	second.Close()

	// The journal is whole again: a third replay sees all four entries.
	third, _ := startCoordinator(t, spec, p, 4, Config{Chunk: 4, Journal: path})
	if got := third.Replayed(); got != 4 {
		t.Errorf("post-repair replay restored %d shards, want 4", got)
	}
}

// TestJournalIncompatible: a journal from a different run shape is a
// hard startup error, never a silent partial reuse.
func TestJournalIncompatible(t *testing.T) {
	spec := testSpec(t)
	p := results.Params{Trials: 4, Seed: 2}
	path := journalPath(t)
	first, url := startCoordinator(t, spec, p, 4, Config{Chunk: 4, Journal: path})
	completeShards(t, url, p, 0)
	first.Close()

	// Different params (the signature differs).
	if _, err := NewCoordinator(spec, results.Params{Trials: 4, Seed: 3}, 4, Config{Journal: path}); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("different-params journal: err = %v, want hard rejection", err)
	}
	// Different shard count.
	if _, err := NewCoordinator(spec, p, 5, Config{Journal: path}); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("different-shard-count journal: err = %v, want hard rejection", err)
	}
	// Not a journal at all.
	garbage := filepath.Join(t.TempDir(), "not-a-journal.jsonl")
	if err := os.WriteFile(garbage, []byte("hello world\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(spec, p, 4, Config{Journal: garbage}); err == nil || !strings.Contains(err.Error(), "not a shard-result journal") {
		t.Errorf("garbage journal: err = %v, want rejection", err)
	}
	// Corruption in the middle (not a torn tail) is also fatal.
	corrupt := filepath.Join(t.TempDir(), "corrupt.jsonl")
	seed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, append(seed, []byte("{broken\n{\"shard\":1,\"value\":4}\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(spec, p, 4, Config{Journal: corrupt}); err == nil || !strings.Contains(err.Error(), "corrupt entry") {
		t.Errorf("mid-file corruption: err = %v, want rejection", err)
	}
	// A non-empty file whose first line never terminates is rejected,
	// not truncated to zero — it may be somebody's data, not a journal.
	unterminated := filepath.Join(t.TempDir(), "unterminated.jsonl")
	content := []byte("precious bytes with no trailing newline")
	if err := os.WriteFile(unterminated, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(spec, p, 4, Config{Journal: unterminated}); err == nil || !strings.Contains(err.Error(), "not a shard-result journal") {
		t.Errorf("unterminated non-journal: err = %v, want rejection", err)
	}
	if got, err := os.ReadFile(unterminated); err != nil || string(got) != string(content) {
		t.Errorf("rejected file was modified: %q (err %v)", got, err)
	}
}

// TestJournalLocked: a journal held by a live coordinator cannot be
// opened by a second one — interleaved appends and mutual truncation
// would corrupt the very file the restart contract depends on.
func TestJournalLocked(t *testing.T) {
	spec := testSpec(t)
	p := results.Params{Trials: 4}
	path := journalPath(t)
	first, _ := startCoordinator(t, spec, p, 4, Config{Chunk: 4, Journal: path})
	if _, err := NewCoordinator(spec, p, 4, Config{Journal: path}); err == nil || !strings.Contains(err.Error(), "another live coordinator") {
		t.Errorf("concurrent journal open: err = %v, want lock rejection", err)
	}
	// Closing the holder (as process death would) releases the lock.
	first.Close()
	second, err := NewCoordinator(spec, p, 4, Config{Journal: path})
	if err != nil {
		t.Fatalf("journal open after holder closed: %v", err)
	}
	second.Close()
}

// TestLeaseRepollIdempotent pins the satellite-4 fix: a worker whose
// lease response was lost in transit retries POST /lease; while its
// grant is unexpired and unstarted it gets the same grant back, so the
// first chunk is never orphaned under a dead lease for a full TTL.
func TestLeaseRepollIdempotent(t *testing.T) {
	p := results.Params{Trials: 8}
	_, url := startCoordinator(t, testSpec(t), p, 8, Config{Chunk: 2})

	first := grantLease(t, url, "retrier")
	again := grantLease(t, url, "retrier")
	if again.ID != first.ID || again.Start != first.Start || again.End != first.End {
		t.Fatalf("re-poll granted %+v, want the original grant %+v back", again, first)
	}
	// A rejected line is not a sign of work: the grant stays unstarted
	// and a re-poll still returns it.
	if status := postDoc(t, url+"/results", ResultLine{Run: first.Run, Lease: first.ID, ShardLine: experiment.ShardLine{Shard: first.Start, Value: json.RawMessage(`"banana"`)}}, nil); status != http.StatusBadRequest {
		t.Fatalf("corrupt payload: status %d, want 400", status)
	}
	if l := grantLease(t, url, "retrier"); l.ID != first.ID {
		t.Fatalf("re-poll after rejected line granted %+v, want the original grant back", l)
	}
	// Another worker is unaffected and gets the next chunk.
	other := grantLease(t, url, "other")
	if other.ID == first.ID || other.Start != first.End {
		t.Fatalf("second worker granted %+v, want a fresh lease from shard %d", other, first.End)
	}
	// Once a result lands the grant is started: a re-poll now means
	// "give me more work", not a retry.
	var ack ResultAck
	if status := postDoc(t, url+"/results", ResultLine{Run: first.Run, Lease: first.ID, ShardLine: experiment.ShardLine{Shard: first.Start, Value: encodeValue(t, p, first.Start)}}, &ack); status != http.StatusOK {
		t.Fatalf("result: status %d", status)
	}
	next := grantLease(t, url, "retrier")
	if next.ID == first.ID {
		t.Fatalf("post-result re-poll returned the started grant %+v again", next)
	}
}

// TestRunTokenMismatch: every endpoint rejects requests carrying another
// run's token (or none) with 410.
func TestRunTokenMismatch(t *testing.T) {
	p := results.Params{Trials: 2}
	coord, url := startCoordinator(t, testSpec(t), p, 2, Config{Chunk: 2})
	l := grantLease(t, url, "honest")

	for _, run := range []string{"", "some-other-run"} {
		if status := postDoc(t, url+"/lease", LeaseRequest{Worker: "w", Run: run}, nil); status != http.StatusGone {
			t.Errorf("lease with run %q: status %d, want 410", run, status)
		}
		if status := postDoc(t, url+"/renew", RenewRequest{ID: l.ID, Run: run}, nil); status != http.StatusGone {
			t.Errorf("renew with run %q: status %d, want 410", run, status)
		}
		line := ResultLine{Run: run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 0, Value: encodeValue(t, p, 0)}}
		if status := postDoc(t, url+"/results", line, nil); status != http.StatusGone {
			t.Errorf("result with run %q: status %d, want 410", run, status)
		}
	}
	// None of it moved shard state.
	select {
	case <-coord.Finished():
		t.Fatal("cross-run traffic advanced the run")
	default:
	}
}

// TestOutOfSpanResult: a valid lease id does not authorize results for
// shards outside the span that lease granted — including shards from a
// neighbouring lease's span.
func TestOutOfSpanResult(t *testing.T) {
	p := results.Params{Trials: 6, Seed: 1}
	coord, url := startCoordinator(t, testSpec(t), p, 6, Config{Chunk: 3})
	l := grantLease(t, url, "scoped") // [0,3)
	if l.Start != 0 || l.End != 3 {
		t.Fatalf("lease = [%d,%d), want [0,3)", l.Start, l.End)
	}
	for _, shard := range []int{3, 5} {
		line := ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: shard, Value: encodeValue(t, p, shard)}}
		if status := postDoc(t, url+"/results", line, nil); status != http.StatusBadRequest {
			t.Errorf("out-of-span shard %d: status %d, want 400", shard, status)
		}
	}
	// In-span still lands fine afterwards.
	var ack ResultAck
	if status := postDoc(t, url+"/results", ResultLine{Run: l.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: 1, Value: encodeValue(t, p, 1)}}, &ack); status != http.StatusOK {
		t.Errorf("in-span shard 1: status %d, want 200", status)
	}
	if _, err := coord.Values(); err == nil {
		t.Error("out-of-span posts completed the run")
	}
}

// TestGrantSize pins the grant rule: unless a test pins Config.Chunk,
// every grant is max(1, n/16) shards from the first grant on, whatever
// the shards cost — instant completions and 5s completions (on the fake
// clock) leave the next grant's size alone — and Config.Chunk pins it.
func TestGrantSize(t *testing.T) {
	for _, n := range []int{1, 15, 18, 32, 64, 3000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			want := max(1, n/16)
			clock := &fakeClock{t: time.Unix(5000, 0)}
			p := results.Params{Trials: n}
			_, url := startCoordinator(t, testSpec(t), p, n, Config{Lease: 8 * time.Second, Now: clock.Now})
			// The first grant's shards complete at once, the second's 5s
			// apart; the worker renews after each result, as a real one
			// would.
			next := 0
			for _, cost := range []time.Duration{0, 5 * time.Second, 0} {
				if next == n {
					break
				}
				l := grantLease(t, url, "w")
				if l.Start != next || l.End != next+min(want, n-next) {
					t.Fatalf("grant after shard %d = [%d,%d), want %d shards from %d", next, l.Start, l.End, want, next)
				}
				for shard := l.Start; shard < l.End; shard++ {
					clock.Advance(cost)
					postShard(t, url, p, l.Run, l.ID, shard)
					if status := postDoc(t, url+"/renew", RenewRequest{ID: l.ID, Run: l.Run}, nil); status != http.StatusOK {
						t.Fatalf("renew: status %d", status)
					}
				}
				next = l.End
			}
		})
	}
	_, url := startCoordinator(t, testSpec(t), results.Params{Trials: 64}, 64, Config{Chunk: 3})
	if l := grantLease(t, url, "w"); l.Start != 0 || l.End != 3 {
		t.Errorf("pinned Chunk 3: grant [%d,%d), want [0,3)", l.Start, l.End)
	}
}

// TestSilentLeaseHeldUntilTTL pins the single reclaim rule: a lease is
// reclaimed only when the TTL has passed since its grant or last
// renewal. A holder that renewed every second and then went silent for
// half the TTL still holds its lease — an idle worker gets a backup copy
// of the span, never the reclaimed span — and its next renewal succeeds.
func TestSilentLeaseHeldUntilTTL(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9000, 0)}
	p := results.Params{Trials: 4}
	_, url := startCoordinator(t, testSpec(t), p, 4, Config{Chunk: 4, Lease: 10 * time.Second, Now: clock.Now})

	l := grantLease(t, url, "holder")
	for i := 0; i < 3; i++ {
		clock.Advance(time.Second)
		if status := postDoc(t, url+"/renew", RenewRequest{ID: l.ID, Run: l.Run}, nil); status != http.StatusOK {
			t.Fatalf("renew %d: status %d", i, status)
		}
	}
	clock.Advance(5 * time.Second)
	if got := grantLease(t, url, "idler"); !got.Backup || got.Start != 0 || got.End != 4 {
		t.Errorf("5s into a 10s TTL: lease = %+v, want a backup copy of [0,4) (primary still held)", got)
	}
	if status := postDoc(t, url+"/renew", RenewRequest{ID: l.ID, Run: l.Run}, nil); status != http.StatusOK {
		t.Errorf("holder's renew after 5s of silence: status %d, want %d (lease was reclaimed)", status, http.StatusOK)
	}
}
