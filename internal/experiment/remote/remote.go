package remote

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// Remote is the distributed backend: Run starts an HTTP coordinator for
// the experiment's shards and returns when every shard has streamed in.
// Workers are either spawned locally (Procs > 0: the current binary
// re-exec'd in -remote-worker mode against the coordinator's loopback
// address — the one-machine work-stealing configuration) or started by
// hand on any machine that can reach Listen (Procs = 0: the two-terminal
// quickstart; the coordinator prints the -connect line to use). Each
// worker runs its chunk's shards one at a time, so the worker count is
// the one parallelism knob.
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
		return Remote{Listen: o.Listen, Procs: o.Procs, Journal: o.Journal}, nil
	})
	experiment.RegisterSubprocessRunner(runSubprocess)
	experiment.RegisterWorkerMode(runWorkerIfRequested)
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
	cfg := Config{OnShardDone: done}
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

	args := []string{WorkerArg, "-connect", url}
	workers, err := spawnWorkers(ctx, b.Procs, "remote-worker", args, stderr, nil)
	if err != nil {
		return nil, err
	}
	if err := workers.wait(ctx, coord); err != nil {
		return nil, err
	}
	fmt.Fprintln(stderr, runSummary(coord.Stats()))
	return coord.Values()
}

// runSummary renders the remote backend's end-of-run summary: the
// completeSummary both sharded backends print, and how many /results
// posts carried the result lines. The prefix up to "%d won" is parsed by
// tooling (cmd/specbench), so new fields go at the end.
func runSummary(st Stats) string {
	return fmt.Sprintf("remote: %s in %d posts", completeSummary(st), st.ResultPosts)
}

// completeSummary renders the end-of-run scheduling counters: shard
// count, the speculative-backup counters — the tail-latency machinery's
// effect made visible, and the work a backup repeats — and the result
// lines accepted.
func completeSummary(st Stats) string {
	return fmt.Sprintf("run complete: %d shards; backups: %d issued, %d won, %d wasted; results: %d lines",
		st.Shards, st.BackupsIssued, st.BackupsWon, st.BackupsWasted, st.ResultLines)
}

// localWorkers tracks the worker processes a backend spawned beside its
// coordinator.
type localWorkers struct {
	cmds   []*exec.Cmd
	exited chan struct{} // closed when every worker exited (never, when none spawned)
	// stopping is set by kill: exits from then on are the backend's own
	// doing, neither reported nor counted as failures.
	stopping atomic.Bool
	mu       sync.Mutex
	errs     []error // worker failures; guarded by mu
	wg       sync.WaitGroup
}

// slowWorkerEnv is the spawn-side half of the shardDelayEnv fault shim:
// when set to a time.Duration string, the FIRST local worker of either
// kind (-remote-worker or -shard-worker) is started with that per-shard
// delay while the rest run at full speed — a reproducible straggler that
// any stock run on the remote or subprocess backend can be given.
// TestSubprocessBackupWins sets it to require a backup that wins, and
// TestCoordinatorRestartResume (faulttest) to kill a coordinator before
// its journal is complete. Never set in normal operation.
const slowWorkerEnv = "SPECINTERFERENCE_REMOTE_SLOW_WORKER"

// spawnWorkers is the one spawn path for local workers of both kinds: it
// starts n copies of the current binary with args (the worker mode's
// marker first), frames each one's stderr as "[label N] " lines, and
// reaps each, recording and reporting a failure. serve, when non-nil,
// drives worker id over its stdin/stdout pipes until it has read stdout
// to EOF or killed the worker, returning the worker's failure. With
// n = 0 it spawns nothing, and exited never closes: external workers
// come and go.
func spawnWorkers(ctx context.Context, n int, label string, args []string, stderr io.Writer,
	serve func(id int, stdin io.WriteCloser, stdout io.Reader, kill func()) error) (*localWorkers, error) {
	lw := &localWorkers{exited: make(chan struct{})}
	if n <= 0 {
		return lw, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("remote: locate executable for local workers: %w", err)
	}
	var stderrMu sync.Mutex
	slow := os.Getenv(slowWorkerEnv)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		if i == 0 && slow != "" {
			cmd.Env = append(os.Environ(), shardDelayEnv+"="+slow)
		}
		errPipe, err := cmd.StderrPipe()
		var stdin io.WriteCloser
		var stdout io.Reader
		if serve != nil && err == nil {
			if stdin, err = cmd.StdinPipe(); err == nil {
				stdout, err = cmd.StdoutPipe()
			}
		}
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			lw.kill()
			return nil, fmt.Errorf("remote: spawn local %s: %w", label, err)
		}
		lw.cmds = append(lw.cmds, cmd)
		prefix := fmt.Sprintf("[%s %d] ", label, i)
		lw.wg.Add(1)
		go func(id int) {
			defer lw.wg.Done()
			copied := make(chan struct{})
			go func() {
				defer close(copied)
				copyPrefixedLines(stderr, &stderrMu, prefix, errPipe)
			}()
			var err error
			if serve != nil {
				err = serve(id, stdin, stdout, func() { cmd.Process.Kill() })
			}
			<-copied
			// Wait closes the pipes, so it comes after every read of them.
			switch werr := cmd.Wait(); {
			case err == nil:
				err = werr
			case werr != nil:
				err = fmt.Errorf("%w (%v)", err, werr)
			}
			if err == nil || lw.stopping.Load() || ctx.Err() != nil {
				return
			}
			lw.mu.Lock()
			lw.errs = append(lw.errs, fmt.Errorf("worker %d: %w", id, err))
			lw.mu.Unlock()
			stderrMu.Lock()
			fmt.Fprintf(stderr, "%sexited: %v\n", prefix, err)
			stderrMu.Unlock()
		}(i)
	}
	go func() {
		lw.wg.Wait()
		close(lw.exited)
	}()
	return lw, nil
}

// wait blocks until coord's run is over, ctx is cancelled or every
// worker has exited, then kills and reaps the workers still running:
// once the run is over they hold only copies of finished work. It
// returns ctx's error, or one naming the first worker failure when every
// worker exited with shards outstanding.
func (lw *localWorkers) wait(ctx context.Context, coord *Coordinator) error {
	var err error
	select {
	case <-coord.Finished():
	case <-ctx.Done():
		err = ctx.Err()
	case <-lw.exited:
		select {
		case <-coord.Finished():
		default:
			err = fmt.Errorf("remote: all %d local workers exited before the run completed: %w", len(lw.cmds), lw.firstErr())
		}
	}
	lw.kill()
	if len(lw.cmds) > 0 {
		<-lw.exited
	}
	return err
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
	lw.stopping.Store(true)
	for _, cmd := range lw.cmds {
		cmd.Process.Kill()
	}
}

// copyPrefixedLines copies src to dst one line at a time, prefixing each
// line and holding mu across the write, so lines from concurrent workers
// never interleave mid-line and every line is attributable. A final
// unterminated line is still emitted (prefixed) — a crashing worker's
// last words must not vanish.
func copyPrefixedLines(dst io.Writer, mu *sync.Mutex, prefix string, src io.Reader) {
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		mu.Lock()
		fmt.Fprintf(dst, "%s%s\n", prefix, sc.Bytes())
		mu.Unlock()
	}
	// Scanner errors (a line beyond the buffer cap, a read failure) are
	// diagnostics-of-diagnostics: report and move on rather than failing
	// the run over stderr cosmetics. The rest of src is still read, and
	// dropped: a worker whose stderr pipe fills blocks in write, holding
	// its lease until the TTL, or for good when it is the only worker.
	if err := sc.Err(); err != nil {
		mu.Lock()
		fmt.Fprintf(dst, "%s(stderr truncated: %v)\n", prefix, err)
		mu.Unlock()
		io.Copy(io.Discard, src)
	}
}
