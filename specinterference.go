package specinterference

import (
	"context"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/channel"
	"specinterference/internal/core"
	"specinterference/internal/detect"
	"specinterference/internal/emu"
	"specinterference/internal/experiment"
	// Linking remote registers the subprocess and remote backends, which
	// NewExperimentBackendOptions builds by name.
	_ "specinterference/internal/experiment/remote"
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
	// ChannelResult is one Figure 11 curve point; the Figure 11 record
	// stores its points as this type. It has no TotalCycles field: a
	// point's cycle cost is CyclesPerBit.
	ChannelResult = channel.Result
	// SecurityReport is a §5.1 checker outcome.
	SecurityReport = security.Report
	// Workload is a synthetic SPEC-like kernel.
	Workload = workload.Workload
	// EvalResult is a Figure 12 defense-overhead table; the Figure 12
	// record stores it as its payload.
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

// Emulate runs a program on the architectural (golden-model) emulator
// and returns its final registers and instruction count. The emulator's
// per-instruction hook, through which the §5.1 checker and the static
// leak detector observe a run, is not set here.
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

// ExpectedTable1 returns the paper's Table 1 for comparison.
func ExpectedTable1() map[string]map[string]bool { return core.ExpectedTable1() }

// DCacheFigure11 returns the D-cache PoC at its calibrated Figure 11(a)
// noise operating point.
func DCacheFigure11() *PoC { return channel.DCacheFigure11() }

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

// Results-store types: persisted run records with exact cross-run
// comparison (see internal/results and cmd/resultstore).
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
	// RunDiffReport is the comparison of two records.
	RunDiffReport = results.DiffReport
	// RunDiffClass classifies a record comparison.
	RunDiffClass = results.DiffClass
)

// Diff classifications.
const (
	DiffIdentical    = results.Identical
	DiffChanged      = results.Changed
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

// DiffRunRecords compares old with new: identical, changed (each moved
// value named by its path), or incomparable.
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
	// the CLIs expose: one parallelism knob per backend (Workers for
	// in-process goroutines, Procs for subprocess and remote worker
	// processes), plus the remote coordinator's listen address and its
	// resumable shard-result journal directory.
	ExperimentBackendOptions = experiment.BackendOptions
)

// InProcessBackend executes shards on a bounded goroutine pool in the
// current process (workers 0 = one per CPU) — the default backend.
func InProcessBackend(workers int) ExperimentBackend {
	return experiment.InProcess{Workers: workers}
}

// NewExperimentBackendOptions constructs a backend from its CLI name and
// the full option set — the constructor behind every -backend flag:
// "inprocess" (worker goroutines), "subprocess" (re-exec'd copies of the
// current binary over their pipes) or "remote" (an HTTP coordinator
// leasing shard chunks to local or external workers, resumable from a
// Journal directory). Every backend's results are bit-identical. An
// option the named backend does not read (Journal on "subprocess",
// Procs on "inprocess") is an error that names its flag.
func NewExperimentBackendOptions(name string, o ExperimentBackendOptions) (ExperimentBackend, error) {
	return experiment.NewBackendOptions(name, o)
}

// RunExperimentWorkerIfRequested turns the process into a shard worker
// when its first argument names a worker mode — -shard-worker (a
// subprocess-backend pipe worker) or -remote-worker -connect URL (a
// remote-backend HTTP worker) — and returns without side effects
// otherwise. Binaries that run experiments on the subprocess or remote
// backend must call it before any flag parsing.
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

// ParseRecordRef splits "experiment" or "experiment@idx" references used
// by the resultstore CLI (idx negative counts from the newest record).
func ParseRecordRef(ref string) (experiment string, idx int, err error) {
	return results.ParseRef(ref)
}

// GitRevision reports the current source revision ("+dirty" when the
// tree is modified), or "unknown" outside a git checkout.
func GitRevision() string { return results.GitRevision() }
