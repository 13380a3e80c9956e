package core

import (
	"strconv"
	"sync"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/uarch"
)

// attackerCodeBase is where attacker-core programs are mapped; its lines
// land in low LLC sets, away from the attacked set.
const attackerCodeBase = 0x0048_0000

// trainRounds is how often the harness trains the victim branch taken
// before each trial (the §4.1 mistraining loop).
const trainRounds = 4

// trialMaxCycles bounds one trial.
const trialMaxCycles = 500_000

// TrialSpec describes one sender run.
type TrialSpec struct {
	Gadget   Gadget
	Ordering Ordering
	// Policy is the victim core's speculation scheme (the zero value is
	// the unprotected baseline). It is a plain value: one policy may serve
	// any number of trials.
	Policy uarch.SpecPolicy
	// Secret is the bit the mis-speculated access load reads (0 or 1).
	Secret int
	// RefCycle, when positive, injects the attacker's cross-core reference
	// load at this absolute cycle (the AD orderings' "reference clock").
	RefCycle int64
	// Jitter adds uniform [0,Jitter] cycles to DRAM accesses (0 for the
	// deterministic matrix, >0 for the noisy channel runs).
	Jitter int
	// ReplNoisePct perturbs LLC victim selection (see
	// cache.Config.LLCReplacementNoisePct).
	ReplNoisePct int
	// Seed seeds the hierarchy RNG.
	Seed uint64
	// Params overrides the victim chain lengths (zero value = defaults).
	Params VictimParams
	// Trace records victim instruction records in the result.
	Trace bool
	// Tweak, when set, mutates the machine configuration before the system
	// is built (ablations: CDB width, issue policy, MSHR count, LLC
	// replacement, the §5.4 advanced-defense knobs).
	Tweak func(*uarch.Config)
}

func (s *TrialSpec) params() VictimParams {
	if s.Params == (VictimParams{}) {
		return DefaultVictimParams()
	}
	return s.Params
}

// ProbeEvent is one visible access to a probe line.
type ProbeEvent struct {
	Core  int
	Line  int64
	Cycle int64
}

// TrialResult is the outcome of one sender run.
type TrialResult struct {
	// Events lists visible accesses to the probe lines, in order.
	Events []ProbeEvent
	// SecretLineCycle is the cycle of the first visible access to the
	// secret-carrying line (load A or the target instruction line), or -1
	// when it never became visible.
	SecretLineCycle int64
	// VictimStats is the victim core's counters.
	VictimStats uarch.CoreStats
	// Records holds victim instruction records when TrialSpec.Trace is set.
	Records []uarch.InstRecord
	// Layout and Victim expose the generated artifacts for receivers.
	Layout Layout
	Victim *Victim
	// System is the post-run machine, for receivers that keep probing the
	// same hierarchy (the PoCs) and for white-box tests.
	System *uarch.System
	// sigBuf is Signature's scratch buffer, reused across trials on a
	// TrialState so the steady-state matrix loop formats signatures without
	// growing a fresh buffer per call. sigMemo holds the last few returned
	// strings: classification replays the same two secrets over and over, so
	// steady-state Signature calls hit the memo and allocate nothing.
	sigBuf  []byte
	sigMemo [4]string
	sigNext int
}

type recordSink struct{ recs []uarch.InstRecord }

func (r *recordSink) Record(_ int, rec uarch.InstRecord) { r.recs = append(r.recs, rec) }

// NewAttackSystem builds the two-core system, layout and victim for a
// spec, fully primed and trained but not yet run. Exposed for receivers
// and tests that orchestrate phases themselves. It runs on a private
// TrialState, the one place every trial's machine is built or reset, so
// the machine belongs to the caller.
func NewAttackSystem(spec TrialSpec) (*uarch.System, Layout, *Victim, error) {
	return NewTrialState().attackSystem(spec)
}

// prepareTrial sets up memory contents, cache priming, branch training and
// victim registers for one trial by applying the victim's precomputed
// PrimePlan (the same declarative ground truth the static leak detector
// analyses), then training the branch and loading the program.
func prepareTrial(sys *uarch.System, v *Victim, spec TrialSpec) error {
	plan, err := v.PrimePlan(spec.Secret)
	if err != nil {
		return err
	}
	m := sys.Memory()
	h := sys.Hierarchy()

	for _, w := range plan.MemWrites {
		m.Write64(w.Addr, w.Val)
	}
	for _, op := range plan.Ops {
		switch op.Kind {
		case PrimeWarmInst:
			h.WarmInst(0, op.Addr, op.Level)
		case PrimeWarmData:
			h.Warm(0, op.Addr, op.Level)
		case PrimeFlush:
			h.Flush(op.Addr)
		}
	}

	// Mistrain the bounds-check branch toward taken.
	sys.Core(0).Predictor().Train(v.BranchPC, true, trainRounds)

	if err := sys.LoadProgram(0, v.Prog, spec.Policy); err != nil {
		return err
	}
	c := sys.Core(0)
	for _, r := range plan.Regs {
		c.SetReg(r.Reg, r.Val)
	}
	return nil
}

// refProgram returns the attacker's reference-clock program: one load of
// RefAddr, then halt. The program is spec-independent (the address comes
// from a register) and immutable once built, so it is assembled once.
var refProgram = sync.OnceValue(func() *isa.Program {
	return asm.NewBuilder().
		SetCodeBase(attackerCodeBase).
		Load(isa.R2, isa.R1, 0).
		Halt().
		MustBuild()
})

// injectReference loads the reference program on the attacker core and
// warms its code so the reference load issues immediately.
func injectReference(sys *uarch.System, l Layout) error {
	p := refProgram()
	for pc := 0; pc < p.Len(); pc++ {
		sys.Hierarchy().WarmInst(1, p.InstAddr(pc), cache.LevelL1)
	}
	if err := sys.LoadProgram(1, p, uarch.SpecPolicy{}); err != nil {
		return err
	}
	sys.Core(1).SetReg(isa.R1, l.RefAddr)
	return nil
}

// RunTrial executes one sender run and returns the probe-line events. It
// runs on a private, unpooled TrialState, so the result (including the
// post-run System) belongs to the caller; batch harnesses that discard
// results between trials should use a pooled TrialState instead.
func RunTrial(spec TrialSpec) (*TrialResult, error) {
	return NewTrialState().Run(spec)
}

// Signature renders the order of probe events without timing — the view
// the §5.1 attacker model grants (the sequence of visible LLC accesses).
// The format is the committed-baseline one ("c%d:%#x;" per event); lines
// are nonnegative, so AppendInt-with-0x-prefix matches %#x byte for byte.
//
//speclint:allocfree
func (r *TrialResult) Signature() string {
	buf := r.sigBuf[:0]
	for _, e := range r.Events {
		buf = append(buf, 'c')
		buf = strconv.AppendInt(buf, int64(e.Core), 10)
		buf = append(buf, ':', '0', 'x')
		buf = strconv.AppendInt(buf, e.Line, 16)
		buf = append(buf, ';')
	}
	r.sigBuf = buf
	for _, s := range r.sigMemo {
		if s == string(buf) { // comparison only — no conversion alloc
			return s
		}
	}
	// Memo miss: materialize the string once and cache it. Steady-state
	// classification replays the same few signatures, so this conversion
	// runs O(distinct signatures) times, not O(trials) — the AllocsPerRun
	// pins hold because the loop hits the memo above.
	//speclint:ignore allocfree memo-miss slow path; steady state hits the memo
	s := string(buf)
	r.sigMemo[r.sigNext] = s
	r.sigNext = (r.sigNext + 1) % len(r.sigMemo)
	return s
}
