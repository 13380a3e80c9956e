package experiment

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"

	"specinterference/internal/results"
	"specinterference/internal/runner"
)

// Subprocess fans shards out across re-exec'd copies of the current
// binary in a hidden -shard-worker mode, scheduled over their
// stdin/stdout pipes by the remote backend's coordinator (registered
// from internal/experiment/remote's init; Run fails unless that package
// is linked in). Idle workers get the next span of JSON-streamed shards,
// so fast workers absorb the load of slow spans (AD-ordering matrix
// cells calibrate twice), a straggler's remainder gets a speculative
// backup, and a crashed worker's undone shards run elsewhere. Results
// are placed by shard index — the same determinism contract as
// InProcess, across process boundaries; a shard run twice must produce
// identical bytes. Worker stderr passes through line-by-line with a
// "[worker N]" prefix, so diagnostics from concurrent workers stay
// attributable; the backend itself prints nothing.
type Subprocess struct {
	// Procs is the worker-process count (0 = one per CPU); clamped to the
	// shard count.
	Procs int
	// Workers bounds shard concurrency inside each worker process
	// (0 = serial within the worker — the process count is the
	// parallelism knob).
	Workers int
	// Chunk pins the shards per grant (0 = the remote coordinator's
	// rule: n/16 of the n shards, at least 1).
	Chunk int
	// Stderr receives the prefixed worker diagnostics (nil = os.Stderr).
	Stderr io.Writer
}

// Name implements Backend.
func (Subprocess) Name() string { return "subprocess" }

// SubprocessRunner runs a Subprocess backend's shards; see
// RegisterSubprocessRunner.
type SubprocessRunner func(ctx context.Context, b Subprocess, spec *Spec, p results.Params, n int, done func()) ([]any, error)

var subprocessRunner SubprocessRunner

// RegisterSubprocessRunner installs the scheduler behind Subprocess.Run.
// internal/experiment/remote, which imports this package, registers its
// coordinator from init, the way it registers the remote backend.
func RegisterSubprocessRunner(f SubprocessRunner) { subprocessRunner = f }

// Run implements Backend.
func (b Subprocess) Run(ctx context.Context, spec *Spec, p results.Params, n int, done func()) ([]any, error) {
	if subprocessRunner == nil {
		return nil, fmt.Errorf("experiment: the subprocess backend runs on the coordinator in specinterference/internal/experiment/remote, which this binary does not link")
	}
	return subprocessRunner(ctx, b, spec, p, n, done)
}

// ShardLine is one streamed shard result — the wire format every worker
// transport shares (pipe-worker stdout, remote HTTP /results): a shard's
// JSON-encoded value, or its failure.
type ShardLine struct {
	Shard int             `json:"shard"`
	Value json.RawMessage `json:"value,omitempty"`
	Err   string          `json:"err,omitempty"`
}

// Span is a contiguous shard range [Start, End) — the unit the remote
// coordinator grants to workers of either backend.
type Span struct{ Start, End int }

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

// workerModes are the hidden worker-process modes (the pipe worker and
// the remote HTTP worker), registered by internal/experiment/remote,
// which this package cannot import.
var workerModes []func()

// RegisterWorkerMode adds a hidden worker-mode hook. A hook inspects
// os.Args itself, returns without side effects when not triggered, and
// never returns (os.Exit) when it serves.
func RegisterWorkerMode(f func()) { workerModes = append(workerModes, f) }

// RunWorkerIfRequested gives every registered worker mode the chance to
// take over the process: a backend spawns its workers with the mode's
// marker as the first argument (-shard-worker, -remote-worker), and the
// mode serves and exits. It returns without side effects otherwise.
// Every binary that serves as a backend worker calls it before any flag
// parsing: the experiment CLIs (via Main), resultstore, and the test
// binaries that exercise the backends (via TestMain).
func RunWorkerIfRequested() {
	for _, f := range workerModes {
		f()
	}
}
