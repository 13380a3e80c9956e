package remote

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// Remote is the distributed backend: Run starts an HTTP coordinator for
// the experiment's shards and returns when every shard has streamed in.
// Workers are either spawned locally (Procs > 0: the current binary
// re-exec'd in -remote-worker mode against the coordinator's loopback
// address — the one-machine work-stealing configuration) or started by
// hand on any machine that can reach Listen (Procs = 0: the two-terminal
// quickstart; the coordinator prints the -connect line to use).
//
// Crash tolerance comes from the leases, correctness from the spec
// purity contract: a worker that dies or stalls simply stops renewing,
// its chunk is re-issued, and since every shard's value is a pure
// function of (params, shard index), whoever re-runs it must produce the
// identical bytes — which the coordinator asserts on every duplicate.
type Remote struct {
	// Listen is the coordinator's listen address ("" = 127.0.0.1:0).
	// Use ":8080"-style addresses to accept workers from other machines.
	Listen string
	// Procs is the local worker count (0 = spawn none, wait for external
	// workers).
	Procs int
	// Workers bounds shard goroutines inside each worker (0 = serial).
	Workers int
	// Lease is the lease TTL (0 = DefaultLease).
	Lease time.Duration
	// Chunk is the shards-per-lease granularity (0 = adaptive: grants
	// start at n/32 and track observed per-shard cost; see Config.Chunk).
	Chunk int
	// Journal, when non-empty, is a directory holding one append-only
	// shard-result journal per experiment (<dir>/<experiment>.jsonl, the
	// results-store idiom). Accepted results are appended as they
	// arrive; a restarted coordinator pointed at the same directory
	// replays the journal and serves only the remainder. A journal from
	// a different run shape (experiment, params, shard count) is a hard
	// startup error.
	Journal string
	// Stderr receives coordinator notices and prefixed local-worker
	// diagnostics (nil = os.Stderr).
	Stderr io.Writer
}

// Name implements experiment.Backend.
func (Remote) Name() string { return "remote" }

func init() {
	experiment.RegisterBackendFactory("remote", func(o experiment.BackendOptions) (experiment.Backend, error) {
		return Remote{
			Listen: o.Listen, Procs: o.Procs, Workers: o.Workers,
			Lease: o.Lease, Chunk: o.Chunk, Journal: o.Journal,
		}, nil
	})
	experiment.RegisterWorkerMode(RunWorkerIfRequested)
}

// Run implements experiment.Backend.
func (b Remote) Run(ctx context.Context, spec *experiment.Spec, p results.Params, n int, done func()) ([]any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return nil, ctx.Err()
	}
	stderr := b.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	cfg := Config{Chunk: b.Chunk, Lease: b.Lease, OnShardDone: done}
	if b.Journal != "" {
		if err := os.MkdirAll(b.Journal, 0o755); err != nil {
			return nil, fmt.Errorf("remote: journal directory %s: %w", b.Journal, err)
		}
		cfg.Journal = filepath.Join(b.Journal, spec.Name+".jsonl")
	}
	coord, err := NewCoordinator(spec, p, n, cfg)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	if r := coord.Replayed(); r > 0 {
		fmt.Fprintf(stderr, "remote: journal %s: resumed: %d of %d shards already complete\n", cfg.Journal, r, n)
	}

	addr := b.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	url := "http://" + ln.Addr().String()
	if b.Procs > 0 {
		fmt.Fprintf(stderr, "remote: coordinator on %s serving %s (%d shards), spawning %d local workers\n",
			url, spec.Name, n, b.Procs)
	} else {
		fmt.Fprintf(stderr, "remote: coordinator on %s serving %s (%d shards)\n", url, spec.Name, n)
		fmt.Fprintf(stderr, "remote: waiting for workers — start each with: <binary> %s -connect %s\n", WorkerArg, url)
	}

	workers, err := b.spawnLocalWorkers(ctx, url, stderr)
	if err != nil {
		return nil, err
	}

	select {
	case <-coord.Finished():
	case <-ctx.Done():
		workers.kill()
		return nil, ctx.Err()
	case <-workers.exited:
		// Every local worker is gone. If that's because the job just
		// finished, fall through; otherwise the run can never complete.
		select {
		case <-coord.Finished():
		default:
			return nil, fmt.Errorf("remote: all %d local workers exited before the run completed: %w", b.Procs, workers.firstErr())
		}
	}
	// Give local workers one poll cycle to observe Done and exit cleanly;
	// stragglers are killed rather than orphaned.
	workers.reap(coord.pollInterval() + time.Second)
	fmt.Fprintln(stderr, runSummary(coord.Stats()))
	return coord.Values()
}

// runSummary renders the end-of-run scheduling summary: shard count, the
// speculative-backup counters — the tail-latency machinery's effect made
// visible — and how many /results posts carried the result lines. The
// prefix up to "%d won" is parsed by tooling (cmd/specbench), so new
// fields go at the end.
func runSummary(st Stats) string {
	return fmt.Sprintf("remote: run complete: %d shards; backups: %d issued, %d won, %d wasted; results: %d lines in %d posts",
		st.Shards, st.BackupsIssued, st.BackupsWon, st.BackupsWasted, st.ResultLines, st.ResultPosts)
}

// localWorkers tracks the worker processes a coordinator spawned beside
// itself.
type localWorkers struct {
	cmds   []*exec.Cmd
	exited chan struct{} // closed when every worker exited (never, when none spawned)
	mu     sync.Mutex
	errs   []error // worker exit failures; guarded by mu
	wg     sync.WaitGroup
}

// slowWorkerEnv is the spawn-side half of the shardDelayEnv fault shim:
// when set to a time.Duration string, the FIRST local worker is started
// with that per-shard delay while the rest run at full speed — a
// reproducible straggler, so the CI backup-execution gate can drive
// speculative backup leases through a stock `resultstore check -backend
// remote` run. Never set in normal operation.
const slowWorkerEnv = "SPECINTERFERENCE_REMOTE_SLOW_WORKER"

// spawnLocalWorkers starts Procs re-exec'd -remote-worker processes
// against the coordinator URL, each with "[remote-worker N]"-framed
// stderr passthrough.
func (b Remote) spawnLocalWorkers(ctx context.Context, url string, stderr io.Writer) (*localWorkers, error) {
	lw := &localWorkers{exited: make(chan struct{})}
	if b.Procs <= 0 {
		return lw, nil // exited stays open: external workers come and go
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("remote: locate executable for local workers: %w", err)
	}
	var stderrMu sync.Mutex
	slow := os.Getenv(slowWorkerEnv)
	for i := 0; i < b.Procs; i++ {
		cmd := exec.CommandContext(ctx, exe, WorkerArg,
			"-connect", url, "-parallel", strconv.Itoa(b.Workers))
		cmd.Env = append(os.Environ(), workerEnvVar+"=1")
		if i == 0 && slow != "" {
			cmd.Env = append(cmd.Env, shardDelayEnv+"="+slow)
		}
		pipe, err := cmd.StderrPipe()
		if err != nil {
			lw.kill()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			lw.kill()
			return nil, fmt.Errorf("remote: spawn local worker: %w", err)
		}
		lw.cmds = append(lw.cmds, cmd)
		lw.wg.Add(1)
		go func(id int, cmd *exec.Cmd, pipe io.Reader) {
			defer lw.wg.Done()
			experiment.CopyPrefixedLines(stderr, &stderrMu, fmt.Sprintf("[remote-worker %d] ", id), pipe)
			if err := cmd.Wait(); err != nil {
				lw.mu.Lock()
				lw.errs = append(lw.errs, fmt.Errorf("worker %d: %w", id, err))
				lw.mu.Unlock()
				stderrMu.Lock()
				fmt.Fprintf(stderr, "[remote-worker %d] exited: %v\n", id, err)
				stderrMu.Unlock()
			}
		}(i, cmd, pipe)
	}
	go func() {
		lw.wg.Wait()
		close(lw.exited)
	}()
	return lw, nil
}

// firstErr reports the first worker failure, or a placeholder when the
// workers all exited zero without finishing the job.
func (lw *localWorkers) firstErr() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if len(lw.errs) > 0 {
		return lw.errs[0]
	}
	return fmt.Errorf("workers exited cleanly with shards outstanding")
}

// kill terminates every worker process immediately.
func (lw *localWorkers) kill() {
	for _, cmd := range lw.cmds {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}

// reap waits up to grace for the workers to exit on their own, then
// kills the rest.
func (lw *localWorkers) reap(grace time.Duration) {
	if len(lw.cmds) == 0 {
		return
	}
	select {
	case <-lw.exited:
	case <-time.After(grace):
		lw.kill()
		<-lw.exited
	}
}
