package experiment

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"sync"

	"specinterference/internal/results"
	"specinterference/internal/runner"
)

// workerEnvVar marks a process as a shard worker; the Subprocess backend
// sets it (alongside the workerArg argv marker) on every child it spawns.
const workerEnvVar = "SPECINTERFERENCE_SHARD_WORKER"

// workerArg is the hidden CLI argument naming worker mode, for humans
// reading `ps` output and for invoking the mode by hand.
const workerArg = "-shard-worker"

// Subprocess fans shards out across re-exec'd copies of the current
// binary. Shards are split into chunks (small contiguous ranges) and
// dispatched dynamically: each worker process serves one chunk at a time
// — a JSON request line on stdin, shard results streamed back as JSON
// lines on stdout — and asks for the next when it finishes, so fast
// workers absorb the load of slow chunks (AD-ordering matrix cells
// calibrate twice and cost double) instead of idling behind a static
// equal split. The parent places results by shard index, so collection
// is ordered no matter how workers interleave — the same determinism
// contract as InProcess, across process boundaries. Worker stderr passes
// through line-by-line with a "[worker N]" prefix, so diagnostics from
// concurrent workers stay attributable and never interleave mid-line.
type Subprocess struct {
	// Procs is the worker-process count (0 = one per CPU); clamped to the
	// shard count.
	Procs int
	// Workers bounds shard concurrency inside each worker process
	// (0 = one goroutine per chunk, i.e. serial within the worker — the
	// process count is the parallelism knob).
	Workers int
	// Chunk is the dispatch granularity in shards (0 = automatic: about
	// four chunks per worker, so stragglers cost at most a quarter of one
	// worker's share).
	Chunk int
	// Stderr receives the prefixed worker diagnostics (nil = os.Stderr).
	Stderr io.Writer
}

// Name implements Backend.
func (Subprocess) Name() string { return "subprocess" }

// workerRequest is one parent-to-worker chunk dispatch: run shards
// [Start, End) of the named experiment. A worker serves a stream of
// these, one JSON value at a time, until stdin closes.
type workerRequest struct {
	Experiment string         `json:"experiment"`
	Params     results.Params `json:"params"`
	// Start and End bound the chunk's shard range: [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Workers bounds shard concurrency inside the worker.
	Workers int `json:"workers"`
}

// ShardLine is one streamed shard result — the wire format every worker
// transport shares (subprocess stdout, remote HTTP /results): a shard's
// JSON-encoded value, or its failure.
type ShardLine struct {
	Shard int             `json:"shard"`
	Value json.RawMessage `json:"value,omitempty"`
	Err   string          `json:"err,omitempty"`
}

// Span is a contiguous shard range [Start, End) — the unit every
// chunking scheduler (subprocess dispatch, remote leases) hands out.
type Span struct{ Start, End int }

// Spans tiles [0, n) into contiguous chunks of size chunk (clamped to
// at least 1); the last chunk absorbs the remainder.
func Spans(n, chunk int) []Span {
	if chunk < 1 {
		chunk = 1
	}
	spans := make([]Span, 0, (n+chunk-1)/chunk)
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		spans = append(spans, Span{start, end})
	}
	return spans
}

// chunkSpans splits [0, n) into dispatch chunks of the given size
// (<=0 = automatic: about chunksPerWorker chunks per worker).
func chunkSpans(n, chunk, procs int) []Span {
	const chunksPerWorker = 4
	if chunk <= 0 {
		if procs < 1 {
			procs = 1
		}
		chunk = n / (chunksPerWorker * procs)
	}
	return Spans(n, chunk)
}

// Run implements Backend.
func (b Subprocess) Run(ctx context.Context, spec *Spec, p results.Params, n int, done func()) ([]any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return nil, ctx.Err()
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("experiment: locate executable for subprocess backend: %w", err)
	}
	procs := runner.Workers(b.Procs, n)
	out := make([]any, n)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	// The chunk queue: workers pull the next range as they finish the
	// previous one, so load balance emerges from completion order.
	spans := chunkSpans(n, b.Chunk, procs)
	chunks := make(chan Span)
	go func() {
		defer close(chunks)
		for _, sp := range spans {
			select {
			case chunks <- sp:
			case <-ctx.Done():
				return
			}
		}
	}()

	stderr := b.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	var stderrMu sync.Mutex
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := b.runWorker(ctx, exe, spec, p, id, chunks, out, done, stderr, &stderrMu); err != nil {
				fail(err)
			}
		}(w)
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// runWorker spawns one worker process and feeds it chunks from the queue,
// decoding its streamed results into out by shard index.
func (b Subprocess) runWorker(ctx context.Context, exe string, spec *Spec, p results.Params, id int, chunks <-chan Span, out []any, done func(), stderr io.Writer, stderrMu *sync.Mutex) error {
	cmd := exec.CommandContext(ctx, exe, workerArg)
	cmd.Env = append(os.Environ(), workerEnvVar+"=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	workerStderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("experiment: spawn shard worker: %w", err)
	}
	var stderrWG sync.WaitGroup
	stderrWG.Add(1)
	go func() {
		defer stderrWG.Done()
		CopyPrefixedLines(stderr, stderrMu, fmt.Sprintf("[worker %d] ", id), workerStderr)
	}()

	enc := json.NewEncoder(stdin)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)

	serveErr := func() error {
		for {
			var sp Span
			var ok bool
			select {
			case sp, ok = <-chunks:
			case <-ctx.Done():
				return ctx.Err()
			}
			if !ok {
				return nil
			}
			if err := enc.Encode(workerRequest{
				Experiment: spec.Name, Params: p,
				Start: sp.Start, End: sp.End, Workers: b.Workers,
			}); err != nil {
				return fmt.Errorf("experiment: worker %d: dispatch [%d,%d): %w", id, sp.Start, sp.End, err)
			}
			if err := b.collectChunk(spec, id, sp, sc, out, done); err != nil {
				return err
			}
		}
	}()
	// Closing stdin is the shutdown signal: the worker's request loop
	// sees EOF and exits cleanly. On error, kill instead — the worker may
	// be wedged mid-chunk.
	stdin.Close()
	if serveErr != nil {
		cmd.Process.Kill()
	}
	stderrWG.Wait()
	waitErr := cmd.Wait()
	if serveErr != nil {
		return serveErr
	}
	if waitErr != nil {
		return fmt.Errorf("experiment: worker %d: %w", id, waitErr)
	}
	return nil
}

// collectChunk reads the worker's result lines for one dispatched chunk
// until every shard in the span has reported.
func (b Subprocess) collectChunk(spec *Spec, id int, sp Span, sc *bufio.Scanner, out []any, done func()) error {
	// seen tracks per-shard coverage rather than a bare count, so a
	// misbehaving worker that duplicates one shard and drops another is a
	// clean protocol error, not a nil value reaching the aggregator.
	seen := make([]bool, sp.End-sp.Start)
	for got := 0; got < sp.End-sp.Start; {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return fmt.Errorf("experiment: worker %d [%d,%d): %w", id, sp.Start, sp.End, err)
			}
			return fmt.Errorf("experiment: worker %d exited after %d of %d shard results in [%d,%d)", id, got, sp.End-sp.Start, sp.Start, sp.End)
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var sl ShardLine
		if err := json.Unmarshal(line, &sl); err != nil {
			return fmt.Errorf("experiment: worker %d [%d,%d): bad result line: %w", id, sp.Start, sp.End, err)
		}
		switch {
		case sl.Err != "":
			return fmt.Errorf("experiment: shard %d: %s", sl.Shard, sl.Err)
		case sl.Shard < sp.Start || sl.Shard >= sp.End:
			return fmt.Errorf("experiment: worker %d [%d,%d) returned out-of-range shard %d", id, sp.Start, sp.End, sl.Shard)
		case seen[sl.Shard-sp.Start]:
			return fmt.Errorf("experiment: worker %d [%d,%d) returned shard %d twice", id, sp.Start, sp.End, sl.Shard)
		default:
			v, err := DecodeShard(spec, sl.Value)
			if err != nil {
				return fmt.Errorf("experiment: shard %d: %w", sl.Shard, err)
			}
			out[sl.Shard] = v
			seen[sl.Shard-sp.Start] = true
			got++
			if done != nil {
				done()
			}
		}
	}
	return nil
}

// CopyPrefixedLines copies src to dst one line at a time, prefixing each
// line and holding mu across the write, so lines from concurrent workers
// never interleave mid-line and every line is attributable. A final
// unterminated line is still emitted (prefixed) — a crashing worker's
// last words must not vanish.
func CopyPrefixedLines(dst io.Writer, mu *sync.Mutex, prefix string, src io.Reader) {
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		mu.Lock()
		fmt.Fprintf(dst, "%s%s\n", prefix, sc.Bytes())
		mu.Unlock()
	}
	// Scanner errors (a line beyond the buffer cap, a read failure) are
	// diagnostics-of-diagnostics: report and move on rather than failing
	// the run over stderr cosmetics.
	if err := sc.Err(); err != nil {
		mu.Lock()
		fmt.Fprintf(dst, "%s(stderr truncated: %v)\n", prefix, err)
		mu.Unlock()
	}
}

// DecodeShard unmarshals a shard value into the spec's concrete shard
// type, returning the value (not the pointer) so aggregation sees the
// same concrete types the in-process backend produces.
func DecodeShard(spec *Spec, raw json.RawMessage) (any, error) {
	ptr := spec.NewShard()
	if err := json.Unmarshal(raw, ptr); err != nil {
		return nil, err
	}
	return reflect.ValueOf(ptr).Elem().Interface(), nil
}

// RunShardLines executes shards [start, end) of spec against prepared
// state, streaming one ShardLine per shard via emit as it completes
// (emit is serialized — implementations need no locking). A failing
// shard emits its error line and aborts the range; RunShardLines then
// returns that error. This is the worker-side body every transport
// shares: the subprocess stdin/stdout protocol and the remote HTTP
// workers both sit on it.
func RunShardLines(ctx context.Context, spec *Spec, state any, p results.Params, start, end, workers int, emit func(ShardLine) error) error {
	var mu sync.Mutex
	send := func(sl ShardLine) error {
		mu.Lock()
		defer mu.Unlock()
		return emit(sl)
	}
	// workers<=0 means serial inside the range: with one range served at
	// a time, the worker count across processes is the parallelism knob.
	if workers <= 0 {
		workers = 1
	}
	_, err := runner.Map(ctx, end-start, workers,
		func(ctx context.Context, i int) (struct{}, error) {
			shard := start + i
			v, err := spec.Run(ctx, state, p, shard)
			if err != nil {
				send(ShardLine{Shard: shard, Err: err.Error()})
				return struct{}{}, err
			}
			raw, err := json.Marshal(v)
			if err != nil {
				send(ShardLine{Shard: shard, Err: err.Error()})
				return struct{}{}, err
			}
			return struct{}{}, send(ShardLine{Shard: shard, Value: raw})
		})
	return err
}

// workerModes are extra hidden process modes (the remote worker)
// registered by packages this one cannot import; RunWorkerIfRequested
// gives each a chance to recognise its trigger and serve before the
// shard-worker check.
var workerModes []func()

// RegisterWorkerMode adds a hidden worker-mode hook. A hook inspects
// os.Args/environment itself, returns without side effects when not
// triggered, and never returns (os.Exit) when it serves.
func RegisterWorkerMode(f func()) { workerModes = append(workerModes, f) }

// RunWorkerIfRequested turns the process into a shard worker — serving
// chunk requests from stdin until EOF, streaming shard results to
// stdout, then exiting — when the Subprocess backend spawned it
// (workerEnvVar set, or workerArg as the first argument), and gives
// registered worker modes (the remote HTTP worker's -remote-worker) the
// same chance first. It returns without side effects otherwise. Every
// binary that serves as a backend worker calls it before any flag
// parsing: the experiment CLIs (via Main), resultstore, and the test
// binaries that exercise the backends (via TestMain).
func RunWorkerIfRequested() {
	for _, f := range workerModes {
		f()
	}
	if os.Getenv(workerEnvVar) == "" && !(len(os.Args) > 1 && os.Args[1] == workerArg) {
		return
	}
	os.Exit(workerMain(os.Stdin, os.Stdout, os.Stderr))
}

// workerMain is the worker-process body: decode chunk requests from
// stdin one at a time, run each range on the in-process pool streaming
// results as shards complete, and exit cleanly at EOF (the parent closed
// the pipe: no more work). Spec lookup and state preparation happen once,
// on the first request — every request in a session names the same
// experiment and params. Returns the process exit code.
func workerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	dec := json.NewDecoder(stdin)
	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	enc := json.NewEncoder(bw)
	emit := func(sl ShardLine) error {
		if err := enc.Encode(sl); err != nil {
			return err
		}
		// Flush per line so the parent sees progress as shards complete.
		return bw.Flush()
	}

	var (
		spec  *Spec
		state any
	)
	for {
		var req workerRequest
		if err := dec.Decode(&req); err == io.EOF {
			return 0
		} else if err != nil {
			fmt.Fprintln(stderr, "shard-worker: bad request:", err)
			return 2
		}
		if req.Start < 0 || req.End < req.Start {
			fmt.Fprintf(stderr, "shard-worker: bad shard range [%d,%d)\n", req.Start, req.End)
			return 2
		}
		if spec == nil {
			s, err := Lookup(req.Experiment)
			if err != nil {
				fmt.Fprintln(stderr, "shard-worker:", err)
				return 2
			}
			if state, err = s.PrepareState(req.Params); err != nil {
				fmt.Fprintln(stderr, "shard-worker:", err)
				return 1
			}
			spec = s
		} else if req.Experiment != spec.Name {
			fmt.Fprintf(stderr, "shard-worker: experiment changed mid-session: %s -> %s\n", spec.Name, req.Experiment)
			return 2
		}
		if err := RunShardLines(context.Background(), spec, state, req.Params, req.Start, req.End, req.Workers, emit); err != nil {
			fmt.Fprintln(stderr, "shard-worker:", err)
			return 1
		}
	}
}
