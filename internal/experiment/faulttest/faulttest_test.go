package faulttest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/experiment/remote"
	"specinterference/internal/results"
)

// harness is one fault scenario's world: a figure7 coordinator at the
// committed baseline parameters with a deliberately short lease TTL, an
// httptest server in front of it, and a shim pointed at the server.
type harness struct {
	spec      *experiment.Spec
	state     any
	params    results.Params
	n         int
	coord     *remote.Coordinator
	shim      *Shim
	url       string
	committed string
}

// faultLease is the TTL under test: short enough that expiry-driven
// re-leasing happens within test budget, long enough that the healthy
// worker (renewing at TTL/3) never loses a lease it is serving.
const faultLease = 400 * time.Millisecond

func newHarness(t *testing.T, chunk int) *harness {
	t.Helper()
	return newHarnessLease(t, chunk, faultLease)
}

// newHarnessLease is newHarness with an explicit lease TTL — the backup
// scenarios need a TTL far longer than the test so that speculative
// execution, not lease expiry, is what rescues a stalled span.
func newHarnessLease(t *testing.T, chunk int, lease time.Duration) *harness {
	t.Helper()
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
	state, err := spec.PrepareState(params)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := remote.NewCoordinator(spec, params, n, remote.Config{Chunk: chunk, Lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	shim := &Shim{Base: srv.URL}
	if _, err := shim.Sync(); err != nil {
		t.Fatal(err)
	}
	return &harness{
		spec: spec, state: state, params: params, n: n,
		coord: coord, url: srv.URL,
		shim:      shim,
		committed: committedBaselineHash(t, results.ExpFigure7),
	}
}

// drainAndVerify runs one healthy worker until the coordinator reports
// done, then asserts the aggregated record's canonical signature equals
// the committed baseline — the "crash tolerance never changes the
// answer" acceptance check.
func (h *harness) drainAndVerify(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := remote.RunWorker(ctx, h.url, io.Discard); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	select {
	case <-h.coord.Finished():
	default:
		t.Fatal("healthy worker returned but the run is not finished")
	}
	shards, err := h.coord.Values()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := h.spec.Aggregate(h.params, shards)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Hash != h.committed {
		t.Errorf("record signature %.12s != committed baseline %.12s — the fault leaked into the results", rec.Hash, h.committed)
	}
}

// TestFaultInjection is the table of misbehaving-worker scenarios: each
// fault fires first, then a healthy worker drains the run, and the final
// record must be byte-identical to the committed baseline.
func TestFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full figure7 baseline sweeps with deliberate lease expiries")
	}
	cases := []struct {
		name  string
		chunk int
		fault func(t *testing.T, h *harness)
	}{
		{
			// A worker that dies halfway through its chunk: the two shards
			// it finished stay finished, the rest re-lease after the TTL.
			name: "crash-mid-chunk", chunk: 4,
			fault: func(t *testing.T, h *harness) {
				l, err := h.shim.CrashMidChunk(h.spec, h.state, h.params, 2)
				if err != nil {
					t.Fatal(err)
				}
				if l.End-l.Start != 4 {
					t.Fatalf("shim lease [%d,%d), want a 4-shard chunk", l.Start, l.End)
				}
			},
		},
		{
			// A worker that leases and then hangs: its whole chunk
			// re-leases; the stalled lease can never renew again.
			name: "stall-past-lease", chunk: 5,
			fault: func(t *testing.T, h *harness) {
				l, err := h.shim.StallPastLease()
				if err != nil {
					t.Fatal(err)
				}
				time.Sleep(faultLease + 50*time.Millisecond)
				status, err := h.shim.Renew(l.ID)
				if err != nil {
					t.Fatal(err)
				}
				if status != http.StatusGone {
					t.Errorf("renew after stall: status %d, want %d (lease must be reclaimed)", status, http.StatusGone)
				}
			},
		},
		{
			// Garbage on the wire is rejected per line and never touches
			// shard state.
			name: "malformed-lines", chunk: 0,
			fault: func(t *testing.T, h *harness) {
				for _, body := range []string{
					"{definitely not json\n",
					"\x00\xff\xfe\n",
					`{"lease":`,
				} {
					status, _, err := h.shim.PostRaw([]byte(body))
					if err != nil {
						t.Fatal(err)
					}
					if status != http.StatusBadRequest {
						t.Errorf("malformed body %q: status %d, want 400", body, status)
					}
				}
			},
		},
		{
			// Duplicate correct results are acknowledged idempotently —
			// exactly what a re-issued lease's straggler produces.
			name: "duplicate-results", chunk: 4,
			fault: func(t *testing.T, h *harness) {
				l, err := h.shim.Lease("dup-shim")
				if err != nil {
					t.Fatal(err)
				}
				sl, err := h.shim.CorrectLine(h.spec, h.state, h.params, l.Start)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					status, ack, err := h.shim.PostLine(l.ID, sl)
					if err != nil {
						t.Fatal(err)
					}
					if status != http.StatusOK || ack.Accepted != 1 {
						t.Errorf("duplicate post %d: status %d ack %+v, want idempotent accept", i, status, ack)
					}
				}
				// ...then the shim crashes; the rest of its chunk re-leases.
			},
		},
		{
			// Shard indexes outside [0, n) are rejected outright.
			name: "out-of-range-results", chunk: 0,
			fault: func(t *testing.T, h *harness) {
				l, err := h.shim.Lease("oob-shim")
				if err != nil {
					t.Fatal(err)
				}
				for _, shard := range []int{-1, h.n, 1 << 20} {
					line, _ := json.Marshal(remote.ResultLine{Run: h.shim.Run, Lease: l.ID, ShardLine: experiment.ShardLine{Shard: shard, Value: json.RawMessage("1.5")}})
					status, _, err := h.shim.PostRaw(append(line, '\n'))
					if err != nil {
						t.Fatal(err)
					}
					if status != http.StatusBadRequest {
						t.Errorf("out-of-range shard %d: status %d, want 400", shard, status)
					}
				}
			},
		},
		{
			// A lease id is not a license to post arbitrary in-range
			// shards: results are scoped to the span their lease granted,
			// so a misbehaving worker cannot publish values for work it
			// was never handed.
			name: "out-of-span-results", chunk: 4,
			fault: func(t *testing.T, h *harness) {
				l, err := h.shim.Lease("span-shim")
				if err != nil {
					t.Fatal(err)
				}
				if l.End-l.Start != 4 {
					t.Fatalf("shim lease [%d,%d), want a 4-shard chunk", l.Start, l.End)
				}
				// Forge results for shards outside the span — with the
				// wrong bytes, exactly what unscoped acceptance would have
				// published as those shards' values.
				wrong, err := h.shim.CorrectLine(h.spec, h.state, h.params, l.Start)
				if err != nil {
					t.Fatal(err)
				}
				for _, shard := range []int{l.End, h.n - 1} {
					status, _, err := h.shim.PostLine(l.ID, experiment.ShardLine{Shard: shard, Value: wrong.Value})
					if err != nil {
						t.Fatal(err)
					}
					if status != http.StatusBadRequest {
						t.Errorf("out-of-span shard %d: status %d, want 400", shard, status)
					}
				}
			},
		},
		{
			// The stale-straggler poison: a stalled worker's chunk is
			// re-issued, another worker completes a shard from it, and
			// then the straggler reports a *failure* for that shard. The
			// error is moot — the accepted bytes already satisfied the
			// contract — and must not fail the run.
			name: "stale-error-for-done-shard", chunk: 1 << 20, // one lease spans every shard
			fault: func(t *testing.T, h *harness) {
				stalled, err := h.shim.StallPastLease()
				if err != nil {
					t.Fatal(err)
				}
				if stalled.Start != 0 || stalled.End != h.n {
					t.Fatalf("stalled lease [%d,%d), want [0,%d)", stalled.Start, stalled.End, h.n)
				}
				time.Sleep(faultLease + 50*time.Millisecond)
				thief := &Shim{Base: h.url}
				if _, err := thief.Sync(); err != nil {
					t.Fatal(err)
				}
				reissued, err := thief.Lease("thief")
				if err != nil {
					t.Fatal(err)
				}
				if reissued.Wait || reissued.Done || reissued.Start != 0 {
					t.Fatalf("re-issued lease = %+v, want a grant from shard 0", reissued)
				}
				sl, err := thief.CorrectLine(h.spec, h.state, h.params, 0)
				if err != nil {
					t.Fatal(err)
				}
				if status, _, err := thief.PostLine(reissued.ID, sl); err != nil || status != http.StatusOK {
					t.Fatalf("thief post: status %d err %v", status, err)
				}
				// The straggler wakes up and reports shard 0 "failed".
				status, _, err := h.shim.PostErrorLine(stalled.ID, 0, "stale straggler boom")
				if err != nil {
					t.Fatal(err)
				}
				if status != http.StatusOK {
					t.Errorf("stale error line: status %d, want 200 (ignored)", status)
				}
				select {
				case <-h.coord.Finished():
					t.Fatal("stale error line terminated the run")
				default:
				}
			},
		},
		{
			// Payloads that don't decode as the spec's shard type are
			// corrupt: rejected, and the shard is served again later.
			name: "corrupted-payloads", chunk: 4,
			fault: func(t *testing.T, h *harness) {
				l, err := h.shim.Lease("corrupt-shim")
				if err != nil {
					t.Fatal(err)
				}
				for _, payload := range []string{`"banana"`, `{"not":"a float"}`, `[1,2,3]`} {
					status, _, err := h.shim.PostLine(l.ID, experiment.ShardLine{Shard: l.Start, Value: json.RawMessage(payload)})
					if err != nil {
						t.Fatal(err)
					}
					if status != http.StatusBadRequest {
						t.Errorf("corrupt payload %s: status %d, want 400", payload, status)
					}
				}
				// The shim gives up; its chunk must re-lease intact.
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.chunk)
			tc.fault(t, h)
			h.drainAndVerify(t)
		})
	}
}

// mustPost streams the honest result line for one shard under a lease
// and requires an accept — shared plumbing for the backup scenarios,
// where primaries and backups race each other with correct bytes.
func (h *harness) mustPost(t *testing.T, s *Shim, leaseID string, shard int) {
	t.Helper()
	sl, err := s.CorrectLine(h.spec, h.state, h.params, shard)
	if err != nil {
		t.Fatal(err)
	}
	status, ack, err := s.PostLine(leaseID, sl)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || ack.Accepted != 1 {
		t.Fatalf("post shard %d under %s: status %d ack %+v, want accept", shard, leaseID, status, ack)
	}
}

// TestBackupExecution drives speculative backup leases over the real
// wire protocol. The lease TTL is 30s — far beyond the test — so in
// every scenario it is backup execution, never expiry-driven re-leasing,
// that determines the outcome; and in every scenario the byte-equality
// dedup keeps the final record pinned to the committed baseline.
func TestBackupExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full figure7 baseline sweeps")
	}
	const backupLease = 30 * time.Second

	// A stalled primary holding every shard is overtaken: the healthy
	// worker's first poll finds the queue empty and gets a backup copy of
	// the stalled span, and the run finishes with the primary's TTL
	// nowhere near expiry.
	t.Run("stalled-primary-overtaken", func(t *testing.T) {
		h := newHarnessLease(t, 1<<20, backupLease)
		stalled, err := h.shim.StallPastLease()
		if err != nil {
			t.Fatal(err)
		}
		if stalled.Start != 0 || stalled.End != h.n {
			t.Fatalf("stalled lease [%d,%d), want [0,%d)", stalled.Start, stalled.End, h.n)
		}
		h.drainAndVerify(t)
		st, err := h.shim.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.BackupsIssued != 1 || st.BackupsWon != h.n || st.BackupsWasted != 0 {
			t.Errorf("backup counters issued/won/wasted = %d/%d/%d, want 1/%d/0",
				st.BackupsIssued, st.BackupsWon, st.BackupsWasted, h.n)
		}
	})

	// Primary and backup both land copies of the same shards: whichever
	// copy is second is acknowledged idempotently — wasted work, never an
	// error — and the record is still the baseline.
	t.Run("both-copies-land", func(t *testing.T) {
		h := newHarnessLease(t, 1<<20, backupLease)
		prim, err := h.shim.Lease("primary")
		if err != nil {
			t.Fatal(err)
		}
		h.mustPost(t, h.shim, prim.ID, 0)
		spec := &Shim{Base: h.url}
		if _, err := spec.Sync(); err != nil {
			t.Fatal(err)
		}
		bk, err := spec.Lease("speculator")
		if err != nil {
			t.Fatal(err)
		}
		if !bk.Backup || bk.Start != 1 || bk.End != h.n {
			t.Fatalf("speculator lease = %+v, want a backup of [1,%d)", bk, h.n)
		}
		// The backup lands shard 1 first; the primary's late copy is
		// acknowledged idempotently and not held against the backup.
		h.mustPost(t, spec, bk.ID, 1)
		h.mustPost(t, h.shim, prim.ID, 1)
		// The primary lands shard 2 first; the backup's late copy is
		// wasted speculation.
		h.mustPost(t, h.shim, prim.ID, 2)
		h.mustPost(t, spec, bk.ID, 2)
		// The primary now stalls for good; the backup drains the rest.
		for shard := 3; shard < h.n; shard++ {
			h.mustPost(t, spec, bk.ID, shard)
		}
		st, err := spec.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if want := h.n - 2; st.BackupsIssued != 1 || st.BackupsWon != want || st.BackupsWasted != 1 {
			t.Errorf("backup counters issued/won/wasted = %d/%d/%d, want 1/%d/1",
				st.BackupsIssued, st.BackupsWon, st.BackupsWasted, want)
		}
		h.drainAndVerify(t)
	})

	// A backup is held to the same determinism contract as everyone
	// else: a forged divergent copy of a shard the primary already
	// landed is the 409 tripwire and fails the run.
	t.Run("forged-backup-divergence", func(t *testing.T) {
		h := newHarnessLease(t, 1<<20, backupLease)
		prim, err := h.shim.Lease("primary")
		if err != nil {
			t.Fatal(err)
		}
		// The primary lands shard 1 — mid-span, so with shard 0 still
		// undone the backup's span [0,n) covers it and a forged copy is
		// an in-span duplicate, not an out-of-span 400.
		h.mustPost(t, h.shim, prim.ID, 1)
		forger := &Shim{Base: h.url}
		if _, err := forger.Sync(); err != nil {
			t.Fatal(err)
		}
		bk, err := forger.Lease("forger")
		if err != nil {
			t.Fatal(err)
		}
		if !bk.Backup || bk.Start != 0 || bk.End != h.n {
			t.Fatalf("forger lease = %+v, want a backup of [0,%d)", bk, h.n)
		}
		status, _, err := forger.PostLine(bk.ID, experiment.ShardLine{Shard: 1, Value: json.RawMessage("271828182845")})
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusConflict {
			t.Errorf("forged backup duplicate: status %d, want %d", status, http.StatusConflict)
		}
		select {
		case <-h.coord.Finished():
		case <-time.After(5 * time.Second):
			t.Fatal("determinism violation did not stop the run")
		}
		if _, err := h.coord.Values(); err == nil || !strings.Contains(err.Error(), "determinism") {
			t.Errorf("Values() = %v, want determinism-contract failure", err)
		}
		next, err := h.shim.Lease("bystander")
		if err != nil {
			t.Fatal(err)
		}
		if !next.Done {
			t.Errorf("post-violation lease = %+v, want done", next)
		}
	})
}

// TestDeterminismViolationFailsRun is the one fault that must NOT heal:
// two different byte payloads for the same shard mean the purity
// contract broke somewhere, and silently picking one would publish wrong
// results. The run fails and every worker is sent home.
func TestDeterminismViolationFailsRun(t *testing.T) {
	h := newHarness(t, 4)
	l, err := h.shim.Lease("evil-shim")
	if err != nil {
		t.Fatal(err)
	}
	sl, err := h.shim.CorrectLine(h.spec, h.state, h.params, l.Start)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, err := h.shim.PostLine(l.ID, sl); err != nil || status != http.StatusOK {
		t.Fatalf("honest post: status %d err %v", status, err)
	}
	forged := experiment.ShardLine{Shard: l.Start, Value: json.RawMessage("123456789")}
	status, _, err := h.shim.PostLine(l.ID, forged)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusConflict {
		t.Errorf("forged duplicate: status %d, want %d", status, http.StatusConflict)
	}
	select {
	case <-h.coord.Finished():
	case <-time.After(5 * time.Second):
		t.Fatal("determinism violation did not stop the run")
	}
	if _, err := h.coord.Values(); err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Errorf("Values() = %v, want determinism-contract failure", err)
	}
	// Workers polling for work are told the run is over.
	next, err := h.shim.Lease("bystander")
	if err != nil {
		t.Fatal(err)
	}
	if !next.Done {
		t.Errorf("post-violation lease = %+v, want done", next)
	}
}

// TestCrossRunLeaseCollision pins the run-token fence: lease ids are
// predictable (L1, L2, ...), so two coordinator instances for the same
// experiment — exactly what a journal-resumed restart on the same port
// produces — issue colliding ids. A worker still holding run A's token
// must get 410 from run B everywhere, never an accepted payload or a
// spurious determinism conflict.
func TestCrossRunLeaseCollision(t *testing.T) {
	a := newHarness(t, 4)
	b := newHarness(t, 4)

	lA, err := a.shim.Lease("worker-a")
	if err != nil {
		t.Fatal(err)
	}
	lB, err := b.shim.Lease("worker-b")
	if err != nil {
		t.Fatal(err)
	}
	if lA.ID != lB.ID {
		t.Fatalf("precondition broke: lease ids %q and %q no longer collide across runs", lA.ID, lB.ID)
	}
	if a.shim.Run == b.shim.Run {
		t.Fatal("two coordinator instances minted the same run token")
	}

	// The worker from run A, left pointing at run B's address.
	stale := &Shim{Base: b.url, Run: a.shim.Run}
	sl, err := a.shim.CorrectLine(a.spec, a.state, a.params, lA.Start)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, err := stale.PostLine(lA.ID, sl); err != nil || status != http.StatusGone {
		t.Errorf("stale-run result: status %d err %v, want 410", status, err)
	}
	if status, err := stale.Renew(lB.ID); err != nil || status != http.StatusGone {
		t.Errorf("stale-run renew: status %d err %v, want 410", status, err)
	}
	if _, err := stale.Lease("worker-a"); err == nil {
		t.Error("stale-run lease request was granted, want 410 rejection")
	}

	// Run B is untouched by any of it and still drains to the committed
	// baseline; run A likewise.
	b.drainAndVerify(t)
	a.drainAndVerify(t)
}

// restartCoordEnv triggers the child-process coordinator role of the
// crash/restart sweep; its value is a JSON restartConfig.
const restartCoordEnv = "FAULTTEST_RESTART_COORDINATOR"

// restartConfig is the child coordinator's marching orders.
type restartConfig struct {
	Experiment string `json:"experiment"`
	Journal    string `json:"journal"`
	Procs      int    `json:"procs"`
}

// TestMain lets this test binary play three extra roles: a backend
// worker (subprocess/remote modes, served by the registered hooks), and
// the journaled remote coordinator the restart sweep SIGKILLs.
func TestMain(m *testing.M) {
	experiment.RunWorkerIfRequested()
	if raw := os.Getenv(restartCoordEnv); raw != "" {
		runRestartCoordinator(raw) // never returns
	}
	os.Exit(m.Run())
}

// runRestartCoordinator serves one journaled remote-backend run of the
// configured experiment at its committed baseline params and prints the
// final record signature on stdout.
func runRestartCoordinator(raw string) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "restart-coordinator:", err)
		os.Exit(1)
	}
	var cfg restartConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fail(err)
	}
	params, err := results.BaselineParams(cfg.Experiment)
	if err != nil {
		fail(err)
	}
	spec, err := experiment.Lookup(cfg.Experiment)
	if err != nil {
		fail(err)
	}
	backend := remote.Remote{Procs: cfg.Procs, Journal: cfg.Journal}
	rec, err := experiment.Run(context.Background(), spec, params, backend, nil)
	if err != nil {
		fail(err)
	}
	fmt.Println(rec.Hash)
	os.Exit(0)
}

// journalEntries counts the intact shard entries in a journal file (the
// header excluded; a torn tail parses as nothing and counts as nothing).
func journalEntries(path string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	count, sawHeader := 0, false
	for {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			return count
		}
		line := bytes.TrimSpace(raw[:nl])
		raw = raw[nl+1:]
		switch {
		case len(line) == 0:
		case !sawHeader:
			sawHeader = true
		default:
			var sl experiment.ShardLine
			if json.Unmarshal(line, &sl) == nil {
				count++
			}
		}
	}
}

// slowWorkerEnv is the remote package's fault shim: a duration that
// slows the first local worker of a run to that long per shard.
const slowWorkerEnv = "SPECINTERFERENCE_REMOTE_SLOW_WORKER"

// TestCoordinatorRestartResume is the crash/restart equivalence sweep:
// a real coordinator process (this test binary in a helper role,
// spawning its own local remote workers) is SIGKILLed once roughly half
// the shards are journaled, then restarted against the same journal.
// The restart must replay exactly the journaled shards, run only the
// remainder, and produce a record whose canonical signature equals the
// committed baseline — at several experiment × worker-count
// configurations. Every case must resume a partial journal,
// 0 < replayed < n: a first run that journals every shard before the
// kill lands leaves only a full replay to check. Figure 7's 16 shards
// finish too fast for that, so its first run is one worker slowed to
// 25ms per shard, and the restart runs the case's worker count; Table
// 1's 98 matrix cells take long enough unslowed.
func TestCoordinatorRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns coordinator processes and SIGKILLs them mid-run")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		exp   string
		procs int
		slow  bool
	}{
		{results.ExpFigure7, 1, true},
		{results.ExpFigure7, 2, true},
		{results.ExpTable1, 2, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s-procs%d", tc.exp, tc.procs), func(t *testing.T) {
			spec, err := experiment.Lookup(tc.exp)
			if err != nil {
				t.Fatal(err)
			}
			params, err := results.BaselineParams(tc.exp)
			if err != nil {
				t.Fatal(err)
			}
			n, err := spec.Plan(params)
			if err != nil {
				t.Fatal(err)
			}
			half := n / 2
			if half < 1 {
				half = 1
			}
			dir := t.TempDir()
			jpath := filepath.Join(dir, tc.exp+".jsonl")
			// coordEnv is the environment of a child coordinator that runs
			// procs local workers.
			coordEnv := func(procs int) []string {
				cfgJSON, err := json.Marshal(restartConfig{Experiment: tc.exp, Journal: dir, Procs: procs})
				if err != nil {
					t.Fatal(err)
				}
				return append(os.Environ(), restartCoordEnv+"="+string(cfgJSON))
			}

			var firstErr bytes.Buffer
			first := exec.Command(exe)
			if tc.slow {
				first.Env = append(coordEnv(1), slowWorkerEnv+"=25ms")
			} else {
				first.Env = coordEnv(tc.procs)
			}
			first.Stderr = &firstErr
			if err := first.Start(); err != nil {
				t.Fatal(err)
			}
			exited := make(chan error, 1)
			go func() { exited <- first.Wait() }()
			deadline := time.Now().Add(2 * time.Minute)
			alreadyExited := false
			for journalEntries(jpath) < half {
				select {
				case werr := <-exited:
					// A clean too-fast finish leaves a full journal; anything
					// less is a real failure.
					if journalEntries(jpath) < half {
						t.Fatalf("first run exited (%v) before journaling %d shards\nstderr: %s", werr, half, firstErr.String())
					}
					alreadyExited = true
				case <-time.After(2 * time.Millisecond):
				}
				if alreadyExited {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("first run never journaled %d shards\nstderr: %s", half, firstErr.String())
				}
			}
			if !alreadyExited {
				first.Process.Kill() // SIGKILL: no cleanup, possibly a torn journal tail
				<-exited
			}
			replayable := journalEntries(jpath)
			if replayable < half {
				t.Fatalf("journal holds %d entries after the kill, want at least %d", replayable, half)
			}

			var out, errBuf bytes.Buffer
			second := exec.Command(exe)
			second.Env = coordEnv(tc.procs)
			second.Stdout, second.Stderr = &out, &errBuf
			if err := second.Run(); err != nil {
				t.Fatalf("restarted run failed: %v\nstderr: %s", err, errBuf.String())
			}
			hash := strings.TrimSpace(out.String())
			if committed := committedBaselineHash(t, tc.exp); hash != committed {
				t.Errorf("restarted run signature %.12s != committed baseline %.12s", hash, committed)
			}
			// The restart replayed the journal rather than re-running it...
			m := regexp.MustCompile(`resumed: (\d+) of (\d+) shards`).FindStringSubmatch(errBuf.String())
			if m == nil {
				t.Fatalf("no journal-resume notice in restart stderr:\n%s", errBuf.String())
			}
			replayed, _ := strconv.Atoi(m[1])
			t.Logf("restart replayed %d of %d shards", replayed, n)
			if replayed != replayable {
				t.Errorf("restart replayed %d shards, journal held %d", replayed, replayable)
			}
			if replayed <= 0 || replayed >= n {
				t.Errorf("restart replayed %d of %d shards, want a partial journal (0 < replayed < %d)", replayed, n, n)
			}
			// ...and every shard was journaled exactly once across both runs.
			if got := journalEntries(jpath); got != n {
				t.Errorf("final journal holds %d entries, want %d", got, n)
			}
		})
	}
}

// committedBaselineHash loads the committed PR 2 baseline signature.
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
