package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// jobFetchTimeout bounds how long a starting worker waits for the
// coordinator to come up — the two-terminal quickstart should survive
// starting the worker a few seconds before the coordinator.
const jobFetchTimeout = 10 * time.Second

// workerSeq disambiguates multiple in-process workers (tests run several
// RunWorker goroutines against one httptest coordinator).
var workerSeq atomic.Int64

// shardDelayEnv is a fault-injection shim: a time.Duration string that
// makes this worker sleep that long before sending each shard result —
// buffering it for /results, or writing it to a pipe worker's stdout —
// turning it into an artificial straggler. slowWorkerEnv (remote.go)
// sets it on the first local worker, which is how TestSubprocessBackupWins
// forces backup leases and TestCoordinatorRestartResume a partial
// journal; never set in normal operation. Scheduling only — a slowed
// worker's results are byte-identical, just late.
const shardDelayEnv = "SPECINTERFERENCE_REMOTE_SHARD_DELAY"

// RunWorker serves one coordinator until its job completes: fetch the
// job, build per-process state once, then loop — lease a chunk, run
// its shards one at a time through the shardRunner the pipe worker
// shares, post the chunk's results to /results as two bodies (its first
// result alone, the rest together once the chunk is over; see
// serveChunk), and renew the lease at a third of its TTL while the chunk
// is in flight. A lost lease (the coordinator re-issued it after a
// stall) cancels the chunk and moves on; the coordinator's byte-equality
// dedupe makes any straggler results it already posted harmless. A 410
// on the lease poll means a different run token answers at this address
// — a restarted coordinator (with -journal, the same run resumed under
// a fresh token): the worker re-fetches the job and keeps serving when
// it is the same experiment at the same params. Returns nil when the
// coordinator reports the job done.
func RunWorker(ctx context.Context, connect string, logw io.Writer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if logw == nil {
		logw = io.Discard
	}
	base := strings.TrimRight(connect, "/")
	if base == "" {
		return fmt.Errorf("remote: worker needs a coordinator URL (-connect)")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{}

	job, err := fetchJob(ctx, client, base)
	if err != nil {
		return err
	}
	lease := leaseTTL(job)
	hostname, _ := os.Hostname()
	worker := fmt.Sprintf("%s-%d-%d", hostname, os.Getpid(), workerSeq.Add(1))
	r, err := newShardRunner(job.Experiment, job.Params, "remote-worker "+worker, logw)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "remote-worker %s: serving %s (%d shards) from %s\n", worker, job.Experiment, job.Shards, base)

	resyncs := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := pollLease(ctx, client, base, worker, job.Run)
		if err != nil {
			switch {
			case isGone(err) && ctx.Err() == nil:
				// A different run token answers here now: the coordinator
				// restarted. Re-sync and keep serving when it is the same
				// run shape; prepared state stays valid because params are
				// identical.
				if resyncs++; resyncs > 5 {
					return fmt.Errorf("remote: %s keeps rejecting this worker's run token: %w", base, err)
				}
				nj, jerr := fetchJob(ctx, client, base)
				if jerr != nil {
					return jerr
				}
				if nj.Experiment != job.Experiment || nj.Params.Signature() != job.Params.Signature() || nj.Shards != job.Shards {
					return fmt.Errorf("remote: coordinator at %s now serves a different run (%s, %d shards); this worker was serving %s (%d shards)",
						base, nj.Experiment, nj.Shards, job.Experiment, job.Shards)
				}
				fmt.Fprintf(logw, "remote-worker %s: coordinator restarted; rejoining as run %s\n", worker, nj.Run)
				job = nj
				lease = leaseTTL(job)
				continue
			case isTransportErr(err) && ctx.Err() == nil:
				// The coordinator is ephemeral — it serves one run and
				// exits. Gone mid-poll means the run completed (or was
				// aborted) and there is nothing left to serve.
				fmt.Fprintf(logw, "remote-worker %s: coordinator gone (%v); exiting\n", worker, err)
				return nil
			}
			return err
		}
		resyncs = 0
		switch {
		case grant.Done:
			return nil
		case grant.Wait:
			poll := time.Duration(grant.PollMillis) * time.Millisecond
			if poll <= 0 {
				poll = 100 * time.Millisecond
			}
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			if err := serveChunk(ctx, client, base, r, job, grant, lease); err != nil {
				return err
			}
		}
	}
}

// serveChunk runs one leased chunk and posts its results in two
// bodies. The first result is posted alone, as soon as it exists: it
// marks the lease started, which ends the coordinator's idempotent
// re-poll of an unstarted grant. Every later result line is buffered and
// posted as one body once the chunk is over — finished, or stopped by a
// failing shard, whose failure line must reach the coordinator to fail
// the run — unless the lease was lost or the worker stopped meanwhile.
// The chunk ends only when that body is acked: the next /lease poll
// tells the coordinator this chunk is finished or abandoned, so
// returning with lines still unsent would release finished shards for
// re-execution. The lease is renewed until then, so a worker slowed by
// the shardDelayEnv shim is a straggler, not a crash.
func serveChunk(ctx context.Context, client *http.Client, base string, r *shardRunner, job Job, grant Lease, lease time.Duration) error {
	chunkCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Renew at a third of the TTL. A renewal the coordinator refuses
	// (410: expired, possibly re-issued) loses the lease immediately —
	// someone else owns the chunk now. Transport blips are retried on the
	// next tick: a single dropped packet must not throw away a chunk the
	// coordinator still considers ours; two consecutive failures mean
	// two-thirds of the TTL passed unrenewed, so the lease is as good as
	// gone and the chunk is abandoned conservatively.
	renewDone := make(chan struct{})
	defer close(renewDone)
	var leaseLost atomic.Bool
	go func() {
		t := time.NewTicker(lease / 3)
		defer t.Stop()
		transportFails := 0
		for {
			select {
			case <-t.C:
				var renewed Renewal
				err := postJSON(chunkCtx, client, base+"/renew", RenewRequest{ID: grant.ID, Run: job.Run}, &renewed)
				switch {
				case err == nil:
					transportFails = 0
					continue
				case isTransportErr(err) && chunkCtx.Err() == nil:
					if transportFails++; transportFails < 2 {
						continue
					}
				}
				leaseLost.Store(true)
				cancel()
				return
			case <-renewDone:
				return
			case <-chunkCtx.Done():
				return
			}
		}
	}()

	postResults := func(body []byte) error {
		var ack ResultAck
		return post(chunkCtx, client, base+"/results", body, &ack)
	}
	var (
		first   = true
		rest    []byte
		postErr error
	)
	runErr := r.run(chunkCtx, span{Start: grant.Start, End: grant.End},
		func(sl experiment.ShardLine) error {
			line := append(mustJSON(ResultLine{Run: job.Run, Lease: grant.ID, ShardLine: sl}), '\n')
			if first {
				first = false
				postErr = postResults(line)
				return postErr
			}
			rest = append(rest, line...)
			return nil
		})
	if postErr == nil && len(rest) > 0 && chunkCtx.Err() == nil {
		postErr = postResults(rest)
	}
	switch {
	case leaseLost.Load():
		// The chunk belongs to another worker now. Both the run-shard
		// error (a cancelled context) and a post that failed on the
		// cancelled context are expected, not fatal. Go lease something
		// else; the re-issued chunk covers whatever was lost.
		return nil
	case postErr != nil:
		if isGone(postErr) {
			// The lease — or the whole run token — went stale (a re-issue
			// or a coordinator restart). Abandon the chunk; the lease loop
			// re-syncs, and results already accepted stay accepted.
			return nil
		}
		if isTransportErr(postErr) && ctx.Err() == nil {
			// The coordinator became unreachable — killed, or finished
			// and gone. Abandon the chunk and let the lease loop
			// classify: a coordinator that stays gone is a clean exit, a
			// restarted one answers the next poll with 410 and the worker
			// rejoins its resumed run.
			return nil
		}
		return fmt.Errorf("remote: post results for lease %s: %w", grant.ID, postErr)
	case runErr != nil && ctx.Err() != nil:
		return ctx.Err()
	}
	// A genuine shard failure reached the coordinator in one of the
	// chunk's two bodies; it fails the run and the next lease poll
	// returns Done. Keep serving — the worker's job is transport, the
	// coordinator owns the verdict.
	return nil
}

// pollLease asks for the next chunk, absorbing brief transport blips
// (a few retries) so one dropped packet doesn't kill a worker; a
// persistently unreachable coordinator surfaces as the final transport
// error for the caller to classify. Retrying is safe even when the
// first request's response was lost after the grant was made: lease
// acquisition is idempotent per worker name — re-polling while holding
// an unexpired, unstarted grant returns the same grant instead of
// orphaning the first chunk under a dead lease for a full TTL.
func pollLease(ctx context.Context, client *http.Client, base, worker, run string) (Lease, error) {
	var grant Lease
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(300 * time.Millisecond):
			case <-ctx.Done():
				return Lease{}, ctx.Err()
			}
		}
		err = postJSON(ctx, client, base+"/lease", LeaseRequest{Worker: worker, Run: run}, &grant)
		if err == nil || !isTransportErr(err) {
			return grant, err
		}
	}
	return Lease{}, err
}

// leaseTTL is the renewal deadline a job advertises (falling back to
// the default when a coordinator omits it).
func leaseTTL(job Job) time.Duration {
	lease := time.Duration(job.LeaseMillis) * time.Millisecond
	if lease <= 0 {
		lease = DefaultLease
	}
	return lease
}

// isTransportErr reports whether err is a network-level failure (the
// coordinator unreachable) rather than a protocol rejection it answered
// with; client.Do wraps every transport failure in *url.Error.
func isTransportErr(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

// statusError is a protocol rejection: the coordinator was reachable
// and answered with a non-2xx status.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// isGone reports whether err is a 410 rejection — an expired lease, or
// a run-token mismatch from a restarted coordinator.
func isGone(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.status == http.StatusGone
}

// fetchJob GETs /job, retrying while the coordinator is still starting.
func fetchJob(ctx context.Context, client *http.Client, base string) (Job, error) {
	deadline := time.Now().Add(jobFetchTimeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/job", nil)
		if err != nil {
			return Job{}, err
		}
		resp, err := client.Do(req)
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return Job{}, fmt.Errorf("remote: %s/job: %s", base, resp.Status)
			}
			var job Job
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				return Job{}, fmt.Errorf("remote: decode job: %w", err)
			}
			return job, nil
		}
		if ctx.Err() != nil {
			return Job{}, ctx.Err()
		}
		if time.Now().After(deadline) {
			return Job{}, fmt.Errorf("remote: coordinator unreachable: %w", err)
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return Job{}, ctx.Err()
		}
	}
}

// postJSON POSTs a JSON document and decodes the JSON response,
// converting non-2xx statuses into errors.
func postJSON(ctx context.Context, client *http.Client, url string, body, out any) error {
	return post(ctx, client, url, mustJSON(body), out)
}

func post(ctx context.Context, client *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{
			status: resp.StatusCode,
			msg:    fmt.Sprintf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(raw)),
		}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s: decode response: %w", url, err)
		}
	}
	return nil
}

// runWorkerIfRequested is the one worker-mode hook, registered with
// experiment.RegisterWorkerMode, so every binary calling
// experiment.RunWorkerIfRequested (all experiment CLIs, resultstore,
// test binaries) serves both modes: with shardWorkerArg as argv[1] the
// process becomes a pipe worker, with WorkerArg a remote HTTP worker
// (-connect URL is its one flag), and either way it never returns. It
// returns without side effects otherwise.
func runWorkerIfRequested() {
	if len(os.Args) < 2 {
		return
	}
	switch os.Args[1] {
	case shardWorkerArg:
		os.Exit(workerMain(os.Stdin, os.Stdout, os.Stderr))
	case WorkerArg:
		fs := flag.NewFlagSet("remote-worker", flag.ExitOnError)
		connect := fs.String("connect", "", "coordinator base URL, e.g. http://host:8080 (required)")
		fs.Parse(os.Args[2:])
		if *connect == "" {
			fmt.Fprintln(os.Stderr, "remote-worker: -connect URL is required")
			os.Exit(2)
		}
		if err := RunWorker(context.Background(), *connect, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "remote-worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
}

// shardRunner is the worker body the pipe worker and the HTTP worker
// share: the spec and prepared state of the one run a worker serves,
// and the shardDelayEnv fault shim.
type shardRunner struct {
	spec   *experiment.Spec
	state  any
	params results.Params
	delay  time.Duration
}

// newShardRunner looks up the experiment, builds its per-process state
// once, and reads the shardDelayEnv shim, noting an active one on logw
// under the worker's name.
func newShardRunner(exp string, p results.Params, name string, logw io.Writer) (*shardRunner, error) {
	spec, err := experiment.Lookup(exp)
	if err != nil {
		return nil, err
	}
	state, err := spec.PrepareState(p)
	if err != nil {
		return nil, err
	}
	delay, _ := time.ParseDuration(os.Getenv(shardDelayEnv))
	if delay > 0 {
		fmt.Fprintf(logw, "%s: fault shim active: %v delay per shard\n", name, delay)
	}
	return &shardRunner{spec: spec, state: state, params: p, delay: delay}, nil
}

// run executes the shards of sp one at a time, in index order, passing
// one line per shard to emit. It checks ctx before each shard (a lost
// lease cancels it) and stops at the first failing shard, after
// emitting that shard's error line, returning the failure; an emit
// error stops it too. The delay shim sleeps before each line.
func (r *shardRunner) run(ctx context.Context, sp span, emit func(experiment.ShardLine) error) error {
	for i := sp.Start; i < sp.End; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		v, err := r.spec.Run(ctx, r.state, r.params, i)
		var raw []byte
		if err == nil {
			raw, err = json.Marshal(v)
		}
		if r.delay > 0 {
			select {
			case <-time.After(r.delay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err != nil {
			emit(experiment.ShardLine{Shard: i, Err: err.Error()})
			return err
		}
		if err := emit(experiment.ShardLine{Shard: i, Value: raw}); err != nil {
			return err
		}
	}
	return nil
}
