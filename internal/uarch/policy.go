// Package uarch implements the cycle-level out-of-order multi-core
// simulator: fetch with a mistrainable branch predictor, rename/dispatch
// into a reorder buffer and unified reservation stations, age-ordered issue
// to pipelined and non-pipelined execution units, common-data-bus
// arbitration, a load/store unit with MSHR allocation, in-order retirement,
// and squash/recovery.
//
// The design deliberately exposes the five microarchitectural behaviours
// that the speculative interference attacks of Behnia et al. (ASPLOS 2021)
// exploit:
//
//  1. ready-oldest-first issue arbitration (§3.2.2's f/f' cascade),
//  2. non-pipelined execution-unit occupancy (GDNPEU),
//  3. one-cycle wakeup delay between a producer's writeback and its
//     dependant's earliest issue (the "writeback delay" of Figure 3),
//  4. MSHR allocation in request order with no age reservation (GDMSHR),
//  5. reservation-station back-pressure that stalls dispatch and then
//     fetch (GIRS).
//
// Invisible-speculation schemes and defenses plug in via SpecPolicy.
//
// # Performance architecture
//
// The simulator's hot loop is tick() on each core; everything on it is
// organized around two invariants. First, dispatch hands out strictly
// increasing sequence numbers and never reuses them, so the ROB is always
// seq-sorted (binary-searchable for rename, tail-cuttable for squash) and
// every "is any OLDER in-flight instruction X?" safety question reduces to
// comparing against the minimum of a sorted seq slice. The per-predicate
// seqSet trackers (unresolved branches, incomplete instructions and loads,
// fences, unknown store addresses) are maintained at the rare mutation
// events — dispatch, completion, retire, squash — so safe(), the fence
// check and load disambiguation are O(1) per query instead of a per-cycle
// ROB scan. Second, issue visits only real candidates: beside the unified
// RS, each execution class keeps a list of its operand-ready RS entries.
// An entry joins at dispatch, or in wakeup when its last source tag
// resolves, and leaves with its RS slot or at squash; readiness never
// reverts while an entry holds its slot, so nothing is rescanned. Each
// port walks just the lists of the classes it serves, so an entry still
// waiting on a producer costs issue nothing, and the port-independent
// gate verdict is memoized per entry per cycle. Wakeup likewise scans
// only the entries with an unresolved source tag (the waiting list), not
// the ROB. Between trials, System.Reset restores only the cache sets
// filled since the last reset (see cache.Cache.Reset) and zeroes only the
// memory words written, so a reset costs what the trial touched, not the
// size of the machine.
//
// On top of the per-cycle work, System.Run skips provably idle cycles
// entirely: when a tick changes nothing (no core sets its progressed
// flag), the run jumps to the earliest scheduled event — redirect,
// I-fetch or execution completion, hierarchy walk, EU free, MSHR fill —
// multiplying out the per-cycle stall counters for exact stats.
//
// All of this is contractually timing-neutral: the optimizations change
// how fast cycles are simulated, never what a cycle does. The committed
// sim-cycles/op / sim-insts/op trajectory and the fast-forward on/off
// equivalence test (TestFastForwardEquivalence) pin that contract in CI.
package uarch

import "fmt"

// ShadowModel defines when an instruction stops being speculative.
type ShadowModel int

// Shadow models.
const (
	// ShadowSpectre: an instruction is safe when no older conditional
	// branch is unresolved (the paper's "Spectre model").
	ShadowSpectre ShadowModel = iota
	// ShadowSpectreTSO additionally requires all older loads to have
	// completed (Delay-on-Miss under a TSO memory model: unprotected loads
	// may not bypass older loads, so no two unprotected loads are ever
	// concurrently in flight).
	ShadowSpectreTSO
	// ShadowFuturistic: an instruction is safe only when every older
	// instruction has completed (the paper's "Futuristic model"; the
	// head-of-ROB unprotection rule of InvisiSpec-Futuristic, SafeSpec
	// wait-for-commit, Conditional Speculation and MuonTrap).
	ShadowFuturistic
)

// String implements fmt.Stringer.
func (m ShadowModel) String() string {
	switch m {
	case ShadowSpectre:
		return "spectre"
	case ShadowSpectreTSO:
		return "spectre-tso"
	case ShadowFuturistic:
		return "futuristic"
	default:
		return fmt.Sprintf("shadow(%d)", int(m))
	}
}

// LoadAction is a policy's decision for a speculative load about to access
// the data cache.
type LoadAction int

// Load actions.
const (
	// ActVisible lets the load access and update the caches normally (the
	// unsafe baseline).
	ActVisible LoadAction = iota
	// ActInvisible lets the load obtain data without changing any cache
	// state. The load may later require an expose (see ExposeOnSafe) or a
	// deferred replacement touch (TouchOnSafe).
	ActInvisible
	// ActDelay parks the load; it re-issues visibly once it becomes safe
	// (Delay-on-Miss's miss handling).
	ActDelay
)

// String implements fmt.Stringer.
func (a LoadAction) String() string {
	switch a {
	case ActVisible:
		return "visible"
	case ActInvisible:
		return "invisible"
	case ActDelay:
		return "delay"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// IFetchMode governs speculative instruction fetch.
type IFetchMode int

// Instruction-fetch modes.
const (
	// IFetchVisible: speculative fetches fill the I-cache normally
	// (InvisiSpec and Delay-on-Miss leave the I-cache unprotected, §3.2.2).
	IFetchVisible IFetchMode = iota
	// IFetchInvisible: in-shadow fetches read without filling (SafeSpec
	// shadow structures, MuonTrap instruction filter).
	IFetchInvisible
	// IFetchDelay: in-shadow fetch misses stall the frontend until the
	// shadow clears (Conditional Speculation, the fence defenses).
	IFetchDelay
)

// String implements fmt.Stringer.
func (m IFetchMode) String() string {
	switch m {
	case IFetchVisible:
		return "visible"
	case IFetchInvisible:
		return "invisible"
	case IFetchDelay:
		return "delay"
	default:
		return fmt.Sprintf("ifetch(%d)", int(m))
	}
}

// LoadCtx carries what a policy may inspect when deciding a load.
type LoadCtx struct {
	// Core is the issuing core's id.
	Core int
	// Addr is the load's effective address.
	Addr int64
	// Cycle is the current cycle.
	Cycle int64
	// L1Hit reports whether the line is in the core's L1D right now.
	L1Hit bool
}

// SpecPolicy is an invisible-speculation scheme or defense. One instance is
// attached per core (stateful policies keep per-core state).
//
// Purity contract: CanIssue and DecideLoad must be pure functions of their
// arguments (plus policy construction parameters) — no hidden state, no
// randomness, no dependence on call order or call count. The core relies on
// this: issue memoizes each entry's readiness verdict (which embeds
// CanIssue's answer) for the rest of the cycle, so a CanIssue that answered
// differently on a repeat call would silently desynchronize ports. Policies
// that do keep state (e.g. MuonTrap's filter cache) mutate it only through
// the explicit notification hooks (FilterPolicy, UndoPolicy), which the
// core invokes outside the memoized window.
//
// The policypurity analyzer (internal/lint, run as cmd/speclint in CI)
// enforces the write half of this contract statically: any assignment to
// receiver state inside CanIssue or DecideLoad on a SpecPolicy
// implementation fails the lint gate, with stats accumulation into
// *IssueGateStalls* fields as the one sanctioned exception.
type SpecPolicy interface {
	// Name identifies the scheme in reports.
	Name() string
	// Shadow returns the scheme's speculative-shadow model.
	Shadow() ShadowModel
	// DecideLoad is consulted for a load that is NOT safe under Shadow().
	DecideLoad(ctx LoadCtx) LoadAction
	// ExposeOnSafe reports whether invisibly-completed loads must perform a
	// visible cache access once safe (InvisiSpec validation/expose, SafeSpec
	// commit, MuonTrap L1 install).
	ExposeOnSafe() bool
	// TouchOnSafe reports whether invisible L1 hits apply their deferred
	// replacement update once safe (Delay-on-Miss).
	TouchOnSafe() bool
	// IFetch returns the speculative instruction-fetch mode.
	IFetch() IFetchMode
	// CanIssue gates issue: it receives whether the instruction is safe
	// under Shadow() and returns whether it may issue now. The §5.2 fence
	// defenses return safe; everything else returns true.
	CanIssue(safe bool) bool
	// StallFetchInShadow, when true, stops the frontend from fetching past
	// any unresolved squash source (the "ideal" fence variant used to
	// establish the §5.1 non-interference property; it never mispredicts
	// because it never predicts).
	StallFetchInShadow() bool
}

// UndoPolicy is implemented by CleanupSpec-style schemes: speculative loads
// execute visibly, but cache fills caused by squashed loads are undone
// (invalidated) when the squash happens.
type UndoPolicy interface {
	// UndoSpeculativeFills enables fill-undo at squash.
	UndoSpeculativeFills() bool
}

// FilterPolicy is implemented by schemes with a private speculative buffer
// (MuonTrap's filter cache): the core consults the filter before the L1 and
// notifies the policy about invisible fills and squashes.
type FilterPolicy interface {
	// FilterLookup returns the extra latency and true when the filter holds
	// the line.
	FilterLookup(addr int64) (lat int64, hit bool)
	// OnInvisibleFill records an invisibly-fetched line into the filter.
	OnInvisibleFill(addr int64)
	// OnSquash flushes speculative filter state.
	OnSquash()
}

// ResettablePolicy is implemented by stateful policies whose internal
// structures can be restored to their just-constructed state. Batch
// harnesses memoize policy instances across trials and call ResetPolicy
// before each reuse, so a recycled policy behaves bit-identically to a
// fresh build.
type ResettablePolicy interface {
	ResetPolicy()
}

// Unprotected is the baseline machine: every load is visible, speculative
// fetch fills the I-cache, nothing is gated. It is defined here (rather
// than in internal/schemes) because it is the hardware default the other
// policies modify.
type Unprotected struct{}

// Name implements SpecPolicy.
func (Unprotected) Name() string { return "unsafe" }

// Shadow implements SpecPolicy.
func (Unprotected) Shadow() ShadowModel { return ShadowSpectre }

// DecideLoad implements SpecPolicy.
func (Unprotected) DecideLoad(LoadCtx) LoadAction { return ActVisible }

// ExposeOnSafe implements SpecPolicy.
func (Unprotected) ExposeOnSafe() bool { return false }

// TouchOnSafe implements SpecPolicy.
func (Unprotected) TouchOnSafe() bool { return false }

// IFetch implements SpecPolicy.
func (Unprotected) IFetch() IFetchMode { return IFetchVisible }

// CanIssue implements SpecPolicy.
func (Unprotected) CanIssue(bool) bool { return true }

// StallFetchInShadow implements SpecPolicy.
func (Unprotected) StallFetchInShadow() bool { return false }
