package specinterference

import (
	"context"
	"time"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/channel"
	"specinterference/internal/core"
	"specinterference/internal/detect"
	"specinterference/internal/emu"
	"specinterference/internal/experiment"
	"specinterference/internal/experiment/remote"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/results"
	"specinterference/internal/schemes"
	"specinterference/internal/security"
	"specinterference/internal/trace"
	"specinterference/internal/uarch"
	"specinterference/internal/workload"
)

// Machine building blocks.
type (
	// Config configures a simulated machine (core widths, ports, caches).
	Config = uarch.Config
	// System is a lockstep multi-core machine.
	System = uarch.System
	// Core is one out-of-order core.
	Core = uarch.Core
	// SpecPolicy is an invisible-speculation scheme or defense as a plain
	// comparable value (Scheme returns the named ones; the zero value is
	// the unprotected baseline). One value may serve any number of
	// machines: scheme state such as MuonTrap's filter lives in the core.
	SpecPolicy = uarch.SpecPolicy
	// CacheConfig configures the memory hierarchy.
	CacheConfig = cache.Config
	// Hierarchy is the shared cache hierarchy.
	Hierarchy = cache.Hierarchy
	// Memory is the flat physical memory.
	Memory = mem.Memory
	// Program is an executable instruction sequence.
	Program = isa.Program
	// Inst is a single instruction.
	Inst = isa.Inst
	// Reg names an architectural register.
	Reg = isa.Reg
	// InstRecord is a per-instruction trace record.
	InstRecord = uarch.InstRecord
)

// Attack framework types.
type (
	// Gadget identifies an interference gadget (GDNPEU, GDMSHR, GIRS).
	Gadget = core.Gadget
	// Ordering identifies which accesses the secret reorders.
	Ordering = core.Ordering
	// TrialSpec describes one sender run.
	TrialSpec = core.TrialSpec
	// TrialResult is a sender run's probe events.
	TrialResult = core.TrialResult
	// PoC is an end-to-end cross-core attack.
	PoC = core.PoC
	// BitOutcome is one PoC trial's decoded bit.
	BitOutcome = core.BitOutcome
	// MatrixCell is one Table 1 entry.
	MatrixCell = core.MatrixCell
	// ChannelResult is one Figure 11 curve point.
	ChannelResult = channel.Result
	// SecurityReport is a §5.1 checker outcome.
	SecurityReport = security.Report
	// Workload is a synthetic SPEC-like kernel.
	Workload = workload.Workload
	// EvalResult is a Figure 12 defense-overhead table.
	EvalResult = workload.EvalResult
	// Figure7Result is the interference-contention histogram data.
	Figure7Result = core.Figure7Result
	// VictimParams tunes gadget/target chain lengths.
	VictimParams = core.VictimParams
)

// Gadgets and orderings (Table 1 axes).
const (
	GadgetNPEU = core.GadgetNPEU
	GadgetMSHR = core.GadgetMSHR
	GadgetRS   = core.GadgetRS

	OrderVDVD = core.OrderVDVD
	OrderVDAD = core.OrderVDAD
	OrderVIAD = core.OrderVIAD
)

// PoCKind selects an end-to-end attack variant.
type PoCKind = core.PoCKind

// Attack variants.
const (
	// DCacheAttack is the §4.2 GDNPEU attack with the QLRU receiver.
	DCacheAttack = core.DCachePoC
	// ICacheAttack is the §4.3 GIRS attack with Flush+Reload.
	ICacheAttack = core.ICachePoC
	// MSHRAttack is the GDMSHR VD-VD attack with the QLRU receiver.
	MSHRAttack = core.MSHRPoC
)

// NewSystem builds a multi-core machine over fresh memory.
func NewSystem(cfg Config) (*System, *Memory, error) {
	m := mem.New()
	sys, err := uarch.NewSystem(cfg, m)
	return sys, m, err
}

// DefaultConfig returns a Kaby-Lake-shaped machine configuration.
func DefaultConfig(cores int) Config { return uarch.DefaultConfig(cores) }

// AttackConfig returns the two-core configuration the PoCs run on.
func AttackConfig() Config { return core.AttackConfig() }

// Assemble parses assembler text into a program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble panicking on error.
func MustAssemble(src string) *Program { return asm.MustAssemble(src) }

// Emulate runs a program on the architectural (golden-model) emulator.
func Emulate(p *Program, m *Memory) (*emu.Result, error) {
	return emu.New(p, m).Run()
}

// Scheme returns an invisible-speculation scheme or defense by name:
// unsafe, dom, dom-tso, invisispec-spectre, invisispec-futuristic,
// safespec-wfb, safespec-wfc, muontrap, condspec, cleanupspec,
// fence-spectre, fence-futuristic, fence-spectre-ideal,
// fence-futuristic-ideal.
func Scheme(name string) (SpecPolicy, error) { return schemes.ByName(name) }

// SchemeNames lists every name Scheme accepts.
func SchemeNames() []string { return schemes.Names() }

// RunTrial executes one interference-sender run and reports the visible
// accesses to the probe lines.
func RunTrial(spec TrialSpec) (*TrialResult, error) { return core.RunTrial(spec) }

// NewDCachePoC returns the §4.2 D-Cache attack (GDNPEU sender + QLRU
// replacement-state receiver).
func NewDCachePoC(scheme string, jitter int) *PoC { return core.NewDCachePoC(scheme, jitter) }

// NewICachePoC returns the §4.3 I-Cache attack (GIRS sender + Flush+Reload
// receiver).
func NewICachePoC(scheme string, jitter int) *PoC { return core.NewICachePoC(scheme, jitter) }

// FormatMatrix renders matrix cells as a Table 1-style text table.
func FormatMatrix(cells []MatrixCell) string { return core.FormatMatrix(cells) }

// ExpectedTable1 returns the paper's Table 1 for comparison.
func ExpectedTable1() map[string]map[string]bool { return core.ExpectedTable1() }

// DCacheFigure11 and ICacheFigure11 return the PoCs at their calibrated
// Figure 11 noise operating points.
func DCacheFigure11() *PoC { return channel.DCacheFigure11() }

// ICacheFigure11 returns the Figure 11(b) PoC.
func ICacheFigure11() *PoC { return channel.ICacheFigure11() }

// Static leak-detector types (see internal/detect): a SPECTECTOR-style
// abstract analysis that decides leak/no-leak per Table 1 cell without
// running the cycle-level simulator.
type (
	// LeakVerdict is the detector's decision plus the decisive mechanism.
	LeakVerdict = detect.Verdict
	// LeakReport is one self-composed analysis: the analysed policy and
	// the per-branch paired speculative windows.
	LeakReport = detect.Report
	// LeakEnv is the initial abstract state for one secret value.
	LeakEnv = detect.Env
	// ConcordanceCell pairs the static verdict with the empirical
	// simulator classification for one Table 1 cell.
	ConcordanceCell = detect.Cell
)

// AnalyzeLeak self-composes a program under a policy across two secret
// environments with the attack machine's capacities (ROB, RS, MSHRs) and
// returns the paired speculative windows and differential-pressure
// signals.
func AnalyzeLeak(p *Program, policy SpecPolicy, envs [2]LeakEnv) (*LeakReport, error) {
	return detect.Analyze(p, policy, envs, detect.DefaultParams())
}

// DetectLeak statically analyzes one Table 1 cell: the named scheme
// attacked with the given gadget and ordering, on the exact victim
// program and priming state the empirical harness uses.
func DetectLeak(schemeName string, g Gadget, ord Ordering) (LeakVerdict, error) {
	return detect.CellVerdict(schemeName, g, ord)
}

// NewConcordanceRecord wraps a detector agreement grid as a sealed run
// record, refusing unexplained mismatches.
func NewConcordanceRecord(cells []ConcordanceCell, schemeNames []string) (*RunRecord, error) {
	return results.NewConcordanceRecord(cells, schemeNames)
}

// CheckIdealInvisibleSpeculation verifies the §5.1 definition for a
// program under a scheme: C(E) = C(NoSpec(E)).
func CheckIdealInvisibleSpeculation(spec security.RunSpec) (*SecurityReport, error) {
	return security.Check(spec)
}

// Workloads returns the synthetic SPEC-like kernels.
func Workloads() []Workload { return workload.All() }

// NewTraceRecorder returns a trace hook for System cores; render its
// records with RenderTimeline.
func NewTraceRecorder() *trace.Recorder { return trace.NewRecorder() }

// RenderTimeline draws instruction records as an ASCII pipeline timeline.
func RenderTimeline(records []InstRecord, opt trace.Options) string {
	return trace.Render(records, opt)
}

// TimelineOptions configures RenderTimeline.
type TimelineOptions = trace.Options

// Results-store types: persisted run records with cross-run regression
// classification (see internal/results and cmd/resultstore).
type (
	// RunRecord is one persisted experiment run: parameters, volatile
	// metadata, canonical signature and the full payload.
	RunRecord = results.Record
	// RunParams are the parameters that define record comparability.
	RunParams = results.Params
	// RunMeta is volatile run metadata (git rev, workers, wall time).
	RunMeta = results.Meta
	// ResultStore is an append-only JSONL directory of run records.
	ResultStore = results.Store
	// RunDiffReport is a classified comparison of two records.
	RunDiffReport = results.DiffReport
	// RunDiffClass classifies a record comparison.
	RunDiffClass = results.DiffClass
	// ChannelCurveInput names one measured curve for NewFigure11Record.
	ChannelCurveInput = results.CurveInput
)

// Diff classifications, in increasing severity.
const (
	DiffIdentical    = results.Identical
	DiffDrift        = results.Drift
	DiffRegression   = results.Regression
	DiffIncomparable = results.Incomparable
)

// Experiment names accepted by the results store.
const (
	ExpFigure7     = results.ExpFigure7
	ExpTable1      = results.ExpTable1
	ExpFigure11    = results.ExpFigure11
	ExpFigure12    = results.ExpFigure12
	ExpConcordance = results.ExpConcordance
)

// OpenResultStore opens (creating if needed) a results store directory.
func OpenResultStore(dir string) (*ResultStore, error) { return results.Open(dir) }

// RecordRun stamps a sealed record's volatile metadata (git revision,
// worker count, wall time) and appends it to the store at dir, creating
// the store if needed — the path the experiment binaries' -store flag
// shares.
func RecordRun(dir string, rec *RunRecord, workers int, wall time.Duration) error {
	return results.RecordRun(dir, rec, workers, wall)
}

// NewFigure7Record wraps a Figure 7 measurement as a sealed run record.
func NewFigure7Record(res *Figure7Result, trials, jitter int, seed uint64) (*RunRecord, error) {
	return results.NewFigure7Record(res, trials, jitter, seed)
}

// NewTable1Record wraps a vulnerability-matrix run as a sealed run record.
func NewTable1Record(cells []MatrixCell, schemeNames []string) (*RunRecord, error) {
	return results.NewTable1Record(cells, schemeNames)
}

// NewFigure11Record wraps measured channel curves as a sealed run record.
func NewFigure11Record(curves []ChannelCurveInput, bits int, reps []int, seed uint64) (*RunRecord, error) {
	return results.NewFigure11Record(curves, bits, reps, seed)
}

// NewFigure12Record wraps a defense-overhead sweep as a sealed run record.
func NewFigure12Record(res *EvalResult, iters int, schemeNames []string) (*RunRecord, error) {
	return results.NewFigure12Record(res, iters, schemeNames)
}

// DiffRunRecords classifies the change from old to new: identical,
// statistical drift, regression, or incomparable.
func DiffRunRecords(old, new *RunRecord) *RunDiffReport { return results.Diff(old, new) }

// Experiment-engine types: every experiment is a registered spec (shard
// plan + pure per-shard run function + serial-order aggregator) executed
// over a pluggable backend; see internal/experiment.
type (
	// ExperimentSpec declares one experiment's decomposition into shards.
	ExperimentSpec = experiment.Spec
	// ExperimentBackend executes an experiment's shards: the in-process
	// worker pool, re-exec'd subprocess workers, or the remote HTTP
	// coordinator leasing shard chunks to distributed workers.
	ExperimentBackend = experiment.Backend
	// ExperimentBackendOptions carries every backend-construction knob
	// the CLIs expose (procs, workers, chunk, listen address, lease TTL,
	// and the remote coordinator's resumable shard-result journal
	// directory).
	ExperimentBackendOptions = experiment.BackendOptions
)

// InProcessBackend executes shards on a bounded goroutine pool in the
// current process (workers 0 = one per CPU) — the default backend.
func InProcessBackend(workers int) ExperimentBackend {
	return experiment.InProcess{Workers: workers}
}

// SubprocessBackend fans shard ranges out across re-exec'd copies of the
// current binary (procs 0 = one per CPU), running workers goroutines
// inside each worker process (0 = serial). By the shard purity contract
// its results are bit-identical to the in-process backend's.
func SubprocessBackend(procs, workers int) ExperimentBackend {
	return experiment.Subprocess{Procs: procs, Workers: workers}
}

// RemoteBackend starts an HTTP coordinator on listen ("" = a loopback
// ephemeral port) that leases small shard chunks to workers: procs > 0
// spawns that many local -remote-worker processes (the one-machine
// work-stealing configuration), procs = 0 waits for external workers
// started by hand against the printed URL. Chunk sizes track observed
// shard cost, leases that go unrenewed for a TTL are re-issued, and
// stragglers holding the last in-flight chunks are raced by
// speculative backup leases handed to idle workers, so worker crashes
// and stalls cost wall-clock, never correctness; duplicate results are
// deduplicated by shard index with a byte-equality assertion — which is
// also what lets whichever of a primary/backup pair lands first win —
// and every request is fenced by a per-run token. For a coordinator
// that survives its own crashes, construct the backend through
// NewExperimentBackendOptions with a Journal directory: accepted shard
// results are journaled and a restarted coordinator resumes from them.
func RemoteBackend(listen string, procs, workers int) ExperimentBackend {
	return remote.Remote{Listen: listen, Procs: procs, Workers: workers}
}

// NewExperimentBackendOptions constructs a backend from its CLI name and
// the full option set — the constructor behind every -backend flag.
func NewExperimentBackendOptions(name string, o ExperimentBackendOptions) (ExperimentBackend, error) {
	return experiment.NewBackendOptions(name, o)
}

// ExperimentBackendNames lists the resolvable backend names.
func ExperimentBackendNames() []string { return experiment.BackendNames() }

// RunExperimentWorkerIfRequested turns the process into a shard worker —
// a subprocess-backend stdin/stdout worker, or a remote-backend HTTP
// worker (-remote-worker -connect URL) — when a backend spawned it or it
// was started in a worker mode by hand, and returns without side effects
// otherwise. Binaries that run experiments through SubprocessBackend or
// RemoteBackend must call it before any flag parsing.
func RunExperimentWorkerIfRequested() { experiment.RunWorkerIfRequested() }

// ExperimentNames lists the registered experiment specs.
func ExperimentNames() []string { return experiment.Names() }

// LookupExperiment returns the named experiment spec.
func LookupExperiment(name string) (*ExperimentSpec, error) { return experiment.Lookup(name) }

// RunExperiment plans, executes and aggregates one experiment on a
// backend (nil = in-process, one worker per CPU), returning the sealed
// record. It is the library's one way to run an artifact: the record
// carries the full payload (Figure 7 arms, Table 1 cells, Figure 11
// curves, Figure 12 rows, concordance cells).
func RunExperiment(ctx context.Context, name string, p RunParams, b ExperimentBackend) (*RunRecord, error) {
	spec, err := experiment.Lookup(name)
	if err != nil {
		return nil, err
	}
	return experiment.Run(ctx, spec, p, b, nil)
}

// BaselineRunParams returns the committed regression baseline's
// small-trial parameters for an experiment.
func BaselineRunParams(experiment string) (RunParams, error) {
	return results.BaselineParams(experiment)
}

// ResultExperiments lists every experiment name in canonical order.
func ResultExperiments() []string { return results.Experiments() }

// ReadRecordFile parses one JSONL record file, validating every record.
func ReadRecordFile(path string) ([]*RunRecord, error) { return results.ReadFile(path) }

// ParseRecordRef splits "experiment" or "experiment@idx" references used
// by the resultstore CLI (idx negative counts from the newest record).
func ParseRecordRef(ref string) (experiment string, idx int, err error) {
	return results.ParseRef(ref)
}

// GitRevision reports the current source revision ("+dirty" when the
// tree is modified), or "unknown" outside a git checkout.
func GitRevision() string { return results.GitRevision() }
