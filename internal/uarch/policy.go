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
// Invisible-speculation schemes and defenses are SpecPolicy values: plain
// data the pipeline reads at its decision points (issue gate, load access,
// expose, fetch, squash), so a new scheme is a new value, not a new type.
//
// # Performance architecture
//
// The simulator's hot loop is tick() on each core; everything on it is
// organized around three ideas. First, dispatch hands out strictly
// increasing sequence numbers and never reuses them, so the ROB is always
// seq-sorted (tail-cuttable for squash) and every "is any OLDER in-flight
// instruction X?" safety question reduces to comparing against the seq of
// the oldest entry that is X. Each such predicate (an unresolved branch,
// an incomplete instruction or load, a fence, a store with an unknown
// address) holds a cursor into the in-order queue that holds its entries,
// the ROB or memOrder. An entry that stops satisfying a predicate never
// satisfies it again, so a query moves its cursor forward past such
// entries and reads the seq there; retire shifts a cursor as it pops the
// queue's head and squash clamps it to the cut queue. Dispatch,
// completion and retire do no bookkeeping for them, and each entry is
// passed about once per cursor, so safe(), the fence check and load
// disambiguation cost O(1) amortized per query instead of a per-cycle ROB
// scan.
// Second, decoding happens once per static instruction, not once per
// dynamic one: LoadProgram fills a per-core decode table indexed by PC
// (class, sources, destination, and the conditional-branch, load and
// store flags), and fetched instructions and ROB entries point at their
// row. The table outlives System.Reset, and a load whose instructions
// equal its rows reuses it without validating or decoding again, so a
// trial loop that reloads one victim per trial decodes it once per
// program, not once per trial. Third, each stage visits only the entries
// that can act:
//
//   - Issue. The unified RS is an occupancy count, and each execution
//     class keeps a seq-sorted list of its unissued operand-ready RS
//     entries, with a ready-mask bit set while the list is non-empty. An
//     entry joins at dispatch, in wakeup when its last source tag
//     resolves, or when preemption cancels its execution, and leaves when
//     it issues or at squash. Every issue gate (fence, fence defense, load
//     disambiguation) is a seq limit fixed for the whole stage, so a port
//     ANDs its class mask with the mask of lists whose oldest entry is
//     under the limits and takes the first entry under them; a stage
//     with no such list visits no port. The candidates the defense gates,
//     which IssueGateStalls counts once per serving port, are one seq
//     range of each list, fixed for the stage: two binary searches per
//     ready class per cycle, added once per port serving the class.
//   - Rename and wakeup. The rename map holds each register's youngest
//     in-flight producer as a pointer, so a source finds its producer
//     without a search; retire clears a slot naming the retiring entry
//     and squash rebuilds the map. Dispatch links each waiting consumer
//     onto its producer's wakeup list (intrusive links in the entries, so
//     nothing allocates), a writeback visits only the completing
//     producer's consumers, and squash cuts the doomed tail of each
//     surviving list.
//   - Load/store unit. It walks a seq-sorted list of the issued loads it
//     still has work for, not every memory op in flight. A load finds its
//     forwarding store once, at the first attempt, and keeps a pointer to
//     it until it forwards. A load that finds the D-MSHR file full parks
//     on the fill counts of its own L1D set and filter set, which
//     cache.Cache keeps per set: until the file's next fill is due, and
//     while no line is installed in those sets, each retry would fail the
//     same way, so it is counted and not attempted. When that fill comes
//     and an older load has taken the freed slot for another line, the
//     load re-parks until the next fill without walking; a fill elsewhere
//     in the cache wakes nothing.
//   - Queues. The ROB, memOrder, the LSU list, the fetch buffer and the
//     ready lists are windows into backing arrays twice their capacity: a
//     pop reslices the front instead of shifting the rest, so issuing a
//     list's oldest entry moves nothing.
//
// Between trials, System.Reset restores only the cache sets filled since
// the last reset (see cache.Cache.Reset) and zeroes only the memory words
// written, so a reset costs what the trial touched, not the size of the
// machine.
//
// On top of the per-cycle work, System.Run skips provably idle cycles
// entirely: when a tick changes nothing (no core sets its progressed
// flag), the run jumps to the earliest scheduled event — redirect,
// I-fetch or execution completion, hierarchy walk, EU free, MSHR fill —
// multiplying out the per-cycle stall counters for exact stats. It reads
// those counters' deltas off one repeat of the idle tick, so a tick that
// does not skip takes no snapshot.
//
// All of this is contractually timing-neutral: the optimizations change
// how fast cycles are simulated, never what a cycle does. The committed
// sim-cycles/op / sim-insts/op trajectory, the two CoreStats goldens and
// the fast-forward on/off equivalence tests (TestFastForwardEquivalence,
// and TestGeneratedCoreStatsGolden on generated programs) pin that
// contract in CI.
package uarch

import (
	"fmt"

	"specinterference/internal/cache"
)

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

// SpecPolicy is an invisible-speculation scheme or defense, described as
// data: one field per rule the paper's Table 1 analysis sorts schemes by.
// The zero value is the unprotected baseline — every load visible,
// speculative fetch fills the I-cache, nothing gated — and
// internal/schemes holds the named values.
//
// A SpecPolicy is a comparable value with no mutable state, so one value
// may serve any number of cores, machines and trials. The one piece of
// scheme state, MuonTrap's filter cache, belongs to the core: the policy
// only names its geometry (Filter), and Core.LoadProgram builds or resets
// the buffer.
//
// Purity contract: CanIssue and DecideLoad are value-receiver methods that
// only read fields, so their answers depend on their arguments alone. The
// core relies on this: issue asks CanIssue once per cycle and turns the
// answer into a seq limit for the whole stage, and a load parked on a
// full D-MSHR file skips its retries because, among other things,
// DecideLoad cannot answer differently for the same L1D miss.
type SpecPolicy struct {
	// Name identifies the scheme in reports.
	Name string
	// Shadow is the scheme's speculative-shadow model: when an
	// instruction stops being speculative.
	Shadow ShadowModel
	// OnHit and OnMiss decide a load that is NOT safe under Shadow, by
	// whether its line is in the core's L1D right now (see DecideLoad).
	OnHit, OnMiss LoadAction
	// ExposeOnSafe makes invisibly-completed loads perform a visible cache
	// access once safe (InvisiSpec validation/expose, SafeSpec commit,
	// MuonTrap L1 install).
	ExposeOnSafe bool
	// TouchOnSafe makes invisible L1 hits apply their deferred replacement
	// update once safe (Delay-on-Miss).
	TouchOnSafe bool
	// IFetch is the speculative instruction-fetch mode.
	IFetch IFetchMode
	// IssueOnlySafe gates issue: only instructions safe under Shadow may
	// issue (the §5.2 fence defenses; see CanIssue).
	IssueOnlySafe bool
	// StallFetchInShadow stops the frontend from fetching past any
	// unresolved squash source (the "ideal" fence variant used to
	// establish the §5.1 non-interference property; it never mispredicts
	// because it never predicts).
	StallFetchInShadow bool
	// UndoSpeculativeFills makes speculative loads that execute visibly
	// have their cache fills undone (invalidated) when they are squashed
	// (CleanupSpec).
	UndoSpeculativeFills bool
	// Filter, when Sets > 0, gives each core a private LRU buffer of this
	// geometry for speculative fills (MuonTrap's filter cache): the core
	// serves speculative loads from it before the L1, records invisible
	// fills into it, and flushes it on every squash.
	Filter cache.Geometry
}

// CanIssue receives whether an instruction is safe under Shadow and
// returns whether it may issue now.
func (p SpecPolicy) CanIssue(safe bool) bool { return safe || !p.IssueOnlySafe }

// DecideLoad returns the action for a load that is not safe under Shadow,
// given whether its line hits in the core's L1D.
func (p SpecPolicy) DecideLoad(l1Hit bool) LoadAction {
	if l1Hit {
		return p.OnHit
	}
	return p.OnMiss
}
