package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"specinterference/internal/results"
)

// Subprocess fans shards out across re-exec'd copies of the current
// binary in a hidden -shard-worker mode, scheduled over their
// stdin/stdout pipes by the remote backend's coordinator (registered
// from internal/experiment/remote's init; Run fails unless that package
// is linked in). Idle workers get the next span of JSON-streamed shards,
// so fast workers absorb the load of slow spans (AD-ordering matrix
// cells calibrate twice), a straggler's remainder gets a speculative
// backup, and a crashed worker's undone shards run elsewhere. Each
// worker runs its span's shards one at a time, so Procs is the one
// parallelism knob. Results are placed by shard index — the same
// determinism contract as InProcess, across process boundaries; a shard
// run twice must produce identical bytes. Worker stderr passes through
// line-by-line with a "[worker N]" prefix, so diagnostics from
// concurrent workers stay attributable; the backend itself prints
// nothing.
type Subprocess struct {
	// Procs is the worker-process count (0 = one per CPU); clamped to the
	// shard count.
	Procs int
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

// workerMode is the hidden worker-process hook, registered by
// internal/experiment/remote, which this package cannot import.
var workerMode func()

// RegisterWorkerMode installs the worker-mode hook. The hook inspects
// os.Args itself, returns without side effects when not triggered, and
// never returns (os.Exit) when it serves.
func RegisterWorkerMode(f func()) { workerMode = f }

// RunWorkerIfRequested gives the registered worker mode the chance to
// take over the process: a backend spawns its workers with a mode's
// marker as the first argument (-shard-worker, -remote-worker), and the
// mode serves and exits. It returns without side effects otherwise.
// Every binary that serves as a backend worker calls it before any flag
// parsing: the experiment CLIs (via Main), resultstore, and the test
// binaries that exercise the backends (via TestMain).
func RunWorkerIfRequested() {
	if workerMode != nil {
		workerMode()
	}
}
