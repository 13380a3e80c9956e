package uarch

import (
	"fmt"
	"math"

	"specinterference/internal/cache"
	"specinterference/internal/emu"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// stalledBranch is the predNext sentinel for conditional branches fetched
// in StallFetchInShadow mode: fetch stopped at the branch instead of
// predicting, and resumes via a redirect when the branch resolves.
const stalledBranch = -1

// memState tracks a load's progress through the load/store unit.
type memState int

const (
	memNone    memState = iota
	memRetry            // issued; waiting to (re)attempt the cache access
	memWalking          // access in flight; data arrives at memReadyAt
	memDelayed          // parked by an ActDelay policy decision
	memDone             // data obtained
)

// entry is one in-flight dynamic instruction (a ROB entry).
type entry struct {
	seq   int64
	pc    int
	inst  isa.Inst
	class isa.Class

	// renamed operands: srcTag[k] is the producer's seq or -1 when srcVal[k]
	// holds the value.
	nsrc   int
	srcTag [2]int64
	srcVal [2]int64

	// Wakeup lists. wakeHead and wakeTail are the first and last link of
	// the list of consumers waiting on this entry's result, in dispatch
	// order. A consumer sits once on the list of each producer it waits
	// on, and wakeNext[k] continues the list of the producer its source
	// slot k names. The links live in the entries, so building, walking
	// and cutting the lists never allocates.
	wakeHead, wakeTail wakeLink
	wakeNext           [2]wakeLink

	fetchCycle int64
	dispCycle  int64
	issued     bool
	issueCycle int64
	// rdyStamp/rdyOK/rdyGated memoize candidateReady for cycle rdyStamp-1:
	// readiness is port-independent, so ports sharing a class reuse the
	// verdict (the gate-stall stat still counts once per examining port).
	rdyStamp      int64
	rdyOK         bool
	rdyGated      bool
	execDoneAt    int64
	completed     bool
	completeCycle int64
	destVal       int64
	inRS          bool
	port          int

	// branches
	predTaken  bool
	predNext   int
	actualNext int

	// invisibleFetch: see fetched.invisibleFetch.
	invisibleFetch bool

	// memory
	addrKnown bool
	addr      int64
	mstate    memState
	memReady  int64
	invisible bool
	wasL1Hit  bool
	exposed   bool
	forwarded bool
	level     cache.Level
	// fwdKnown is set at a load's first access attempt, when fwdSeq records
	// the seq of the store it forwards from, or -1 for none. By then every
	// older store's address is known and no older store can still be
	// dispatched, and a store cannot issue, let alone retire, before its
	// data arrives, so a retrying load never needs to search again.
	fwdKnown bool
	fwdSeq   int64
}

// wakeLink is one link of a producer's wakeup list: the consumer, and the
// source slot k whose wakeNext[k] holds the next link. The zero link ends
// a list.
type wakeLink struct {
	e *entry
	k int
}

func (e *entry) isLoad() bool  { return e.inst.Op == isa.Load }
func (e *entry) isStore() bool { return e.inst.Op == isa.Store }
func (e *entry) isFlush() bool { return e.inst.Op == isa.Flush }

// srcsReady reports whether all renamed operands have values.
func (e *entry) srcsReady() bool {
	for k := 0; k < e.nsrc; k++ {
		if e.srcTag[k] != -1 {
			return false
		}
	}
	return true
}

// fetched is a decoded instruction waiting in the fetch buffer.
type fetched struct {
	pc         int
	inst       isa.Inst
	predTaken  bool
	predNext   int
	fetchCycle int64
	// invisibleFetch marks instructions whose line was fetched invisibly
	// (IFetchInvisible shadow structures); the line is exposed when the
	// instruction retires, modelling the shadow-I-structure commit.
	invisibleFetch bool
}

// noSeq is the min() result of an empty seqSet: older than nothing.
const noSeq = int64(math.MaxInt64)

// seqSet tracks the seqs of in-flight entries satisfying one shadow/safety
// predicate (unresolved branch, incomplete, fence, ...). Because dispatch
// hands out strictly increasing seqs, add() is always an append and the
// slice stays sorted; squash cuts a tail. The per-cycle prefix scan the
// arrays replace asked "is any entry OLDER than e marked" — with sorted
// seqs that is just min() < e.seq, so safety queries are O(1) and the
// bookkeeping moves to the (much rarer) completion/retire/squash events.
type seqSet struct {
	seqs []int64
}

// add records seq, which must exceed every seq already present.
func (s *seqSet) add(seq int64) { s.seqs = append(s.seqs, seq) }

// remove drops seq if present.
func (s *seqSet) remove(seq int64) {
	lo, hi := 0, len(s.seqs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.seqs[mid] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.seqs) && s.seqs[lo] == seq {
		s.seqs = append(s.seqs[:lo], s.seqs[lo+1:]...)
	}
}

// dropYoungerThan removes every seq greater than keep (squash).
func (s *seqSet) dropYoungerThan(keep int64) {
	lo, hi := 0, len(s.seqs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.seqs[mid] <= keep {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.seqs = s.seqs[:lo]
}

// min returns the oldest tracked seq, or noSeq when empty.
func (s *seqSet) min() int64 {
	if len(s.seqs) == 0 {
		return noSeq
	}
	return s.seqs[0]
}

func (s *seqSet) empty() bool { return len(s.seqs) == 0 }

func (s *seqSet) clear() { s.seqs = s.seqs[:0] }

// Core is one out-of-order core.
type Core struct {
	id  int
	sys *System
	cfg *Config

	prog   *isa.Program
	policy SpecPolicy
	// filter is the private speculative buffer of a policy with a Filter
	// geometry (MuonTrap's filter cache), live while such a policy is
	// attached. LoadProgram builds it, or resets the one the core already
	// holds when the geometry matches, so no policy value carries filter
	// state from one run into the next and steady-state trials reuse it.
	filter *cache.Cache

	archRegs [isa.NumRegs]int64
	// regMap maps an architectural register to the seq of its latest
	// in-flight producer, or -1 when the value is architectural.
	regMap [isa.NumRegs]int64

	// rob holds the in-flight window in program order. Dispatch appends
	// strictly increasing seqs, retire pops the front and squash cuts the
	// tail, so the window is always seq-sorted (with gaps where squashes
	// consumed seqs) and robEntry resolves a rename tag by binary search.
	rob []*entry
	// rsUsed counts the entries holding an RS slot (inRS). Dispatch takes
	// a slot; issue, releaseRS, retire and squash give it back. No stage
	// needs the slots in any order, so the RS is just this count.
	rsUsed int
	// rsReady lists, per execution class, the RS entries whose source
	// operands are all ready — the only entries issue can pick. An entry
	// joins at dispatch if its sources are ready, else in broadcast when
	// its last tag resolves; it leaves with its RS slot (removeFromClass)
	// or at squash. Readiness never reverts while an entry holds its slot,
	// so the lists never need rescanning.
	rsReady [isa.NumClasses][]*entry
	// memOrder lists in-flight loads and stores in program order.
	memOrder []*entry

	executing []*entry // issued, completion scheduled at execDoneAt
	wbQueue   []*entry // execution done, waiting for a CDB slot

	euFreeAt []int64
	euBusy   []*entry // entry occupying a non-pipelined unit, else nil

	bp        *BranchPred
	oracle    []bool
	oracleIdx int
	nextSeq   int64

	fetchPC      int
	fetchOn      bool
	fetchBuf     []fetched
	lastIFLine   int64
	lastIFInvis  bool
	ifPending    bool
	ifReadyAt    int64
	redirectPend bool
	redirectAt   int64
	redirectPC   int

	// Shadow/safety trackers: the seqs of in-flight entries that are an
	// unresolved conditional branch / not yet complete / an incomplete load /
	// a fence / a store with unknown address. Maintained incrementally at
	// dispatch, completion, retire and squash; safe() and candidateReady
	// compare against their minimums instead of re-scanning the ROB.
	unresolvedCB   seqSet
	incomplete     seqSet
	incompleteLoad seqSet
	fenceSet       seqSet
	storeAddrUnk   seqSet
	// fbCondBr/fbLoads count conditional branches and loads sitting in the
	// fetch buffer — the fetch-buffer half of fetchShadowed.
	fbCondBr int
	fbLoads  int

	// portClasses[p] lists (deduplicated) the classes port p serves.
	portClasses [][]isa.Class

	// progressed records whether this core's last tick changed any machine
	// state (beyond per-cycle stall counters). A cycle where no core
	// progresses is provably idle and Run may fast-forward to the next
	// scheduled event; see System.runUntil.
	progressed bool

	halted bool
	paused bool

	// freeEntries is the recycled-entry pool: every entry that leaves the
	// pipeline (retire, squash, LoadProgram) returns here zeroed, so the
	// steady-state trial loop dispatches without allocating.
	freeEntries []*entry

	stats CoreStats
	hook  TraceHook
}

func newCore(id int, sys *System) *Core {
	c := &Core{
		id:     id,
		sys:    sys,
		cfg:    &sys.cfg,
		bp:     NewBranchPred(sys.cfg.BPEntries),
		halted: true,
	}
	c.euFreeAt = make([]int64, len(sys.cfg.Ports))
	c.euBusy = make([]*entry, len(sys.cfg.Ports))
	c.portClasses = make([][]isa.Class, len(sys.cfg.Ports))
	for p := range sys.cfg.Ports {
		var seen [isa.NumClasses]bool
		for _, cls := range sys.cfg.Ports[p].Classes {
			if !seen[cls] {
				seen[cls] = true
				c.portClasses[p] = append(c.portClasses[p], cls)
			}
		}
	}
	for i := range c.regMap {
		c.regMap[i] = -1
	}
	return c
}

// newEntry returns a zeroed entry, reusing a recycled one when available.
func (c *Core) newEntry() *entry {
	if n := len(c.freeEntries); n > 0 {
		e := c.freeEntries[n-1]
		c.freeEntries[n-1] = nil
		c.freeEntries = c.freeEntries[:n-1]
		return e
	}
	return &entry{}
}

// recycle zeroes e and returns it to the pool. Callers must have removed e
// from every pipeline queue first; euBusy may legitimately still point at a
// finished non-pipelined op (issue never consults it once euFreeAt passes),
// so it is scrubbed here.
func (c *Core) recycle(e *entry) {
	for p, b := range c.euBusy {
		if b == e {
			c.euBusy[p] = nil
		}
	}
	*e = entry{}
	c.freeEntries = append(c.freeEntries, e)
}

// robEntry returns the in-flight entry with the given seq, or nil. The ROB
// is always seq-sorted (see the rob field), so this is a binary search,
// replacing the seq→entry map the rename path used to probe.
func (c *Core) robEntry(seq int64) *entry {
	lo, hi := 0, len(c.rob)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.rob[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.rob) && c.rob[lo].seq == seq {
		return c.rob[lo]
	}
	return nil
}

// truncEntries empties an entry queue keeping its capacity, nilling slots so
// the backing array holds no stale pointers into the pool.
func truncEntries(s []*entry) []*entry {
	for i := range s {
		s[i] = nil
	}
	return s[:0]
}

// clearPipeline recycles every in-flight entry and empties all pipeline
// queues, retaining their storage.
func (c *Core) clearPipeline() {
	for _, e := range c.rob {
		c.recycle(e)
	}
	c.rob = truncEntries(c.rob)
	c.rsUsed = 0
	for cls := range c.rsReady {
		c.rsReady[cls] = truncEntries(c.rsReady[cls])
	}
	c.memOrder = truncEntries(c.memOrder)
	c.executing = truncEntries(c.executing)
	c.wbQueue = truncEntries(c.wbQueue)
	c.fetchBuf = c.fetchBuf[:0]
	c.unresolvedCB.clear()
	c.incomplete.clear()
	c.incompleteLoad.clear()
	c.fenceSet.clear()
	c.storeAddrUnk.clear()
	c.fbCondBr, c.fbLoads = 0, 0
	for i := range c.euFreeAt {
		c.euFreeAt[i] = 0
		c.euBusy[i] = nil
	}
}

// reset restores the core to the state newCore returns: no program, no
// policy, architectural state zeroed, predictor fresh. Storage (queues,
// entry pool, tracker slices) is retained for reuse.
func (c *Core) reset() {
	c.clearPipeline()
	c.prog = nil
	c.policy = SpecPolicy{}
	for i := range c.archRegs {
		c.archRegs[i] = 0
	}
	for i := range c.regMap {
		c.regMap[i] = -1
	}
	c.bp.Reset()
	c.bp.ResetStats()
	c.oracle = nil
	c.oracleIdx = 0
	c.nextSeq = 0
	c.fetchPC = 0
	c.fetchOn = false
	c.lastIFLine = 0
	c.lastIFInvis = false
	c.ifPending = false
	c.ifReadyAt = 0
	c.redirectPend = false
	c.redirectAt = 0
	c.redirectPC = 0
	c.halted = true
	c.paused = false
	c.stats = CoreStats{}
	c.hook = nil
}

// ID returns the core id.
func (c *Core) ID() int { return c.id }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() CoreStats { return c.stats }

// Policy returns the attached speculation policy.
func (c *Core) Policy() SpecPolicy { return c.policy }

// Halted reports whether the core has retired a halt (or has no program).
func (c *Core) Halted() bool { return c.halted }

// Reg returns the architectural value of r (valid once halted).
func (c *Core) Reg(r isa.Reg) int64 { return c.archRegs[r] }

// SetReg sets an architectural register before a run.
func (c *Core) SetReg(r isa.Reg, v int64) { c.archRegs[r] = v }

// SetTraceHook installs h (nil disables tracing).
func (c *Core) SetTraceHook(h TraceHook) { c.hook = h }

// Predictor exposes the branch predictor (mistraining, tests).
func (c *Core) Predictor() *BranchPred { return c.bp }

// SetBranchOracle supplies the dynamic conditional-branch outcome sequence
// consumed in fetch order instead of the predictor — the "NoSpec(E)"
// execution of §5.1 is this machine with a perfect oracle. Call after
// LoadProgram (which clears any oracle).
func (c *Core) SetBranchOracle(outcomes []bool) {
	c.oracle = outcomes
	c.oracleIdx = 0
}

// LoadProgram resets the core's pipeline and attaches prog under policy.
// Architectural registers, the branch predictor and all cache state are
// preserved across loads — exactly what a multi-trial attack needs. A
// policy's filter buffer is not: it starts empty on every load.
func (c *Core) LoadProgram(prog *isa.Program, policy SpecPolicy) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	if g := policy.Filter; g.Sets > 0 {
		if c.filter != nil && c.filter.Sets() == g.Sets && c.filter.Ways() == g.Ways && c.filter.Latency() == g.Latency {
			c.filter.Reset()
		} else {
			c.filter = cache.NewCache("filter", g.Sets, g.Ways, g.Latency, cache.PolicyLRU, nil)
		}
	}
	c.prog = prog
	c.policy = policy
	c.clearPipeline()
	for i := range c.regMap {
		c.regMap[i] = -1
	}
	c.fetchPC = 0
	c.fetchOn = true
	c.lastIFLine = -1
	c.ifPending = false
	c.redirectPend = false
	c.halted = false
	c.oracle = nil
	c.oracleIdx = 0
	c.stats = CoreStats{}
	return nil
}

// LoadProgram loads prog on core with policy (System-level convenience).
func (s *System) LoadProgram(core int, prog *isa.Program, policy SpecPolicy) error {
	return s.cores[core].LoadProgram(prog, policy)
}

// ---------------------------------------------------------------------------
// per-cycle pipeline

// SetPaused freezes or thaws the core (multi-phase attack harnesses hold
// the victim while the attacker primes, and vice versa).
func (c *Core) SetPaused(p bool) { c.paused = p }

func (c *Core) tick(cycle int64) {
	c.progressed = false
	if c.halted || c.paused {
		return
	}
	c.stats.Cycles++
	c.releaseRS()
	c.lsuTick(cycle)
	c.issue(cycle)
	c.writeback(cycle)
	c.retire(cycle)
	c.dispatch(cycle)
	c.fetch(cycle)
}

// safe reports whether e is non-speculative under model: no tracked entry
// strictly older than e satisfies the model's shadow predicate. The
// trackers are maintained at dispatch/completion/retire/squash time, so
// this is a compare against a minimum, not a ROB scan. Within a tick the
// trackers mutate only in writeback and later stages — after every safe()
// consumer (releaseRS, lsuTick, issue) has run — so the values those
// stages observe are exactly the cycle-start snapshot the old per-cycle
// prefix scan produced.
func (c *Core) safe(e *entry, model ShadowModel) bool {
	switch model {
	case ShadowSpectre:
		return c.unresolvedCB.min() >= e.seq
	case ShadowSpectreTSO:
		return c.unresolvedCB.min() >= e.seq && c.incompleteLoad.min() >= e.seq
	case ShadowFuturistic:
		return c.incomplete.min() >= e.seq
	default:
		panic(fmt.Sprintf("uarch: unknown shadow model %d", model))
	}
}

// releaseRS frees reservation stations. Normally an RS entry frees at
// issue; under HoldRSUntilSafe (advanced defense rule 1) it frees only once
// the instruction is safe. safe() compares a seq against a tracker minimum
// that is fixed until writeback, and the ROB is seq-sorted, so the safe
// entries are a prefix of the ROB: the walk stops at the first unsafe one.
func (c *Core) releaseRS() {
	if !c.cfg.HoldRSUntilSafe {
		return
	}
	for _, e := range c.rob {
		if !c.safe(e, c.policy.Shadow) {
			return
		}
		if e.inRS && e.issued {
			c.removeRS(e)
			c.progressed = true
		}
	}
}

// ---------------------------------------------------------------------------
// issue

// candidateReady reports whether e can issue this cycle (operands, gates).
// The verdict is port-independent and its inputs (operands, trackers, the
// policy's pure CanIssue) are immutable while issue() runs, so it is
// memoized per entry per cycle; ports sharing a class reuse it. The
// gate-stall stat still counts once per examining (port, candidate) pair:
// a memoized gated verdict replays the increment on every visit.
func (c *Core) candidateReady(e *entry, cycle int64) bool {
	if e.issued {
		return false
	}
	if e.rdyStamp == cycle+1 {
		if e.rdyGated {
			c.stats.IssueGateStalls++
		}
		return e.rdyOK
	}
	e.rdyStamp = cycle + 1
	e.rdyGated = false
	e.rdyOK = c.readyCheck(e)
	return e.rdyOK
}

// readyCheck is the uncached body of candidateReady. e's operands are
// ready: issue only visits the rsReady lists.
func (c *Core) readyCheck(e *entry) bool {
	// lfence semantics: nothing younger than an unretired fence issues.
	if c.fenceSet.min() < e.seq {
		return false
	}
	// Fence-defense gate.
	if !c.policy.CanIssue(c.safe(e, c.policy.Shadow)) {
		e.rdyGated = true
		c.stats.IssueGateStalls++
		return false
	}
	// Loads wait until every older store address is known (conservative
	// disambiguation: this machine never replays on memory ordering).
	if e.isLoad() && c.storeAddrUnk.min() < e.seq {
		return false
	}
	return true
}

// issue walks, for each port, the operand-ready lists of the classes it
// serves — not the whole RS once per port, and never an entry still
// waiting on a producer. The visible behavior of a (port × full RS) scan is
// preserved exactly: entries off the lists could not issue anyway, best
// selection is order-independent (seqs are unique, comparisons strict), and
// IssueGateStalls still counts once per gated (port, candidate) pair per
// cycle because every serving port visits every operand-ready entry and
// candidateReady replays the increment on memoized visits. Port class lists
// are deduped at construction so no port visits a list twice.
func (c *Core) issue(cycle int64) {
	for p := range c.cfg.Ports {
		var best *entry
		for _, cls := range c.portClasses[p] {
			for _, e := range c.rsReady[cls] {
				if e.issued {
					continue
				}
				if !c.candidateReady(e, cycle) {
					continue
				}
				if best == nil {
					best = e
					continue
				}
				if c.cfg.YoungestFirstIssue {
					if e.seq > best.seq {
						best = e
					}
				} else if e.seq < best.seq {
					best = e
				}
			}
		}
		if best == nil {
			continue
		}
		if cycle < c.euFreeAt[p] {
			// Unit busy. Advanced-defense rule 2: an older instruction may
			// preempt a younger one on a non-pipelined ("squashable") unit.
			busy := c.euBusy[p]
			// Preemption requires the victim to still hold its RS entry,
			// otherwise it could never re-issue.
			if c.cfg.AgePriorityArb && c.cfg.HoldRSUntilSafe && busy != nil &&
				busy.inRS && busy.seq > best.seq && !busy.completed {
				c.preempt(p, busy)
			} else {
				continue
			}
		}
		c.issueTo(p, best, cycle)
	}
}

// preempt cancels busy's execution on port p and returns it to the ready
// pool (it still holds its RS entry under HoldRSUntilSafe).
func (c *Core) preempt(p int, busy *entry) {
	c.progressed = true
	busy.issued = false
	busy.execDoneAt = 0
	kept := c.executing[:0]
	for _, x := range c.executing {
		if x != busy {
			kept = append(kept, x)
		}
	}
	c.executing = kept
	c.euFreeAt[p] = 0
	c.euBusy[p] = nil
}

func (c *Core) issueTo(p int, e *entry, cycle int64) {
	c.progressed = true
	e.issued = true
	e.issueCycle = cycle
	e.port = p
	lat := int64(isa.ClassLatency(e.class))
	switch {
	case e.isLoad():
		// One cycle of AGU/port occupancy; the LSU walks the hierarchy from
		// the next cycle on.
		e.addr = e.srcVal[0] + e.inst.Imm
		e.addrKnown = true
		e.mstate = memRetry
		c.euFreeAt[p] = cycle + 1
	case e.isFlush():
		// Address generation only: the eviction applies at retire, so a
		// squashed flush has no effect (clflush is not transient; like on
		// x86 it must be fenced before a reload can be expected to miss).
		e.addr = e.srcVal[0] + e.inst.Imm
		e.addrKnown = true
		e.execDoneAt = cycle + 1
		c.executing = append(c.executing, e)
		c.euFreeAt[p] = cycle + 1
	case e.isStore():
		// Address was computed at wakeup; data travels with the entry and
		// is written at retire.
		e.execDoneAt = cycle + 1
		c.executing = append(c.executing, e)
		c.euFreeAt[p] = cycle + 1
	case e.inst.IsCondBranch():
		taken := emu.BranchTaken(e.inst.Op, e.srcVal[0], e.srcVal[1])
		if taken {
			e.actualNext = e.inst.Target
		} else {
			e.actualNext = e.pc + 1
		}
		e.execDoneAt = cycle + lat
		c.executing = append(c.executing, e)
		c.euFreeAt[p] = cycle + 1
	case e.inst.Op == isa.Jmp:
		e.actualNext = e.inst.Target
		e.execDoneAt = cycle + lat
		c.executing = append(c.executing, e)
		c.euFreeAt[p] = cycle + 1
	default:
		e.destVal = c.compute(e, cycle)
		e.execDoneAt = cycle + lat
		c.executing = append(c.executing, e)
		if isa.Pipelined(e.class) {
			c.euFreeAt[p] = cycle + 1
		} else {
			c.euFreeAt[p] = cycle + lat
			c.euBusy[p] = e
		}
	}
	if !c.cfg.HoldRSUntilSafe {
		c.removeRS(e)
	}
}

// removeRS gives back e's RS slot.
func (c *Core) removeRS(e *entry) {
	e.inRS = false
	c.rsUsed--
	c.removeFromClass(e)
}

// removeFromClass drops e, which is releasing its RS slot, from its
// class's operand-ready list. An entry releases its slot only once issued,
// so it is always on the list.
func (c *Core) removeFromClass(e *entry) {
	l := c.rsReady[e.class]
	for i, x := range l {
		if x == e {
			copy(l[i:], l[i+1:])
			l[len(l)-1] = nil
			c.rsReady[e.class] = l[:len(l)-1]
			return
		}
	}
}

// compute evaluates a register-writing non-memory instruction.
func (c *Core) compute(e *entry, cycle int64) int64 {
	if e.inst.Op == isa.RdCycle {
		return cycle
	}
	return emu.ALU(e.inst, e.srcVal[0], e.srcVal[1])
}

// ---------------------------------------------------------------------------
// writeback

func (c *Core) writeback(cycle int64) {
	// Move finished executions into the CDB queue.
	kept := c.executing[:0]
	for _, e := range c.executing {
		if e.execDoneAt <= cycle {
			c.wbQueue = append(c.wbQueue, e)
		} else {
			kept = append(kept, e)
		}
	}
	c.executing = kept
	if len(c.wbQueue) > 0 {
		// CDBWidth >= 1, so a non-empty queue always completes something.
		c.progressed = true
	}

	// CDB arbitration: by default finish-time then age; under
	// AgePriorityArb strictly by age (advanced defense rule 2).
	if c.cfg.AgePriorityArb {
		sortEntries(c.wbQueue, func(a, b *entry) bool { return a.seq < b.seq })
	} else {
		sortEntries(c.wbQueue, func(a, b *entry) bool {
			if a.execDoneAt != b.execDoneAt {
				return a.execDoneAt < b.execDoneAt
			}
			return a.seq < b.seq
		})
	}
	n := c.cfg.CDBWidth
	if n > len(c.wbQueue) {
		n = len(c.wbQueue)
	}
	c.stats.CDBConflicts += int64(len(c.wbQueue) - n)

	// The winner loop never reads or writes the queue, so it can run before
	// the losers are compacted down in place (no per-cycle reallocation).
	var squashAt *entry
	for _, e := range c.wbQueue[:n] {
		e.completed = true
		e.completeCycle = cycle
		c.incomplete.remove(e.seq)
		if e.isLoad() {
			c.incompleteLoad.remove(e.seq)
		}
		if e.inst.HasDst() {
			c.broadcast(e)
		}
		if e.inst.IsCondBranch() {
			c.unresolvedCB.remove(e.seq)
			if e.predNext == stalledBranch {
				// Ideal-defense mode: fetch waited at this branch; resume
				// it at the resolved target. Nothing younger exists, so no
				// squash is needed and the predictor is never consulted.
				c.redirectPend = true
				c.redirectAt = cycle + int64(c.cfg.RedirectPenalty)
				c.redirectPC = e.actualNext
			} else {
				mispred := e.actualNext != e.predNext
				c.bp.Update(e.pc, e.actualNext == e.inst.Target, mispred)
				if mispred && (squashAt == nil || e.seq < squashAt.seq) {
					squashAt = e
				}
			}
		}
		if c.policy.Filter.Sets > 0 && e.isLoad() && e.invisible && !e.wasL1Hit {
			c.filter.Fill(e.addr)
		}
	}
	m := copy(c.wbQueue, c.wbQueue[n:])
	for i := m; i < len(c.wbQueue); i++ {
		c.wbQueue[i] = nil
	}
	c.wbQueue = c.wbQueue[:m]
	if squashAt != nil {
		c.squash(squashAt, cycle)
	}
}

// broadcast delivers e's result to the consumers on its wakeup list and
// computes store addresses whose base register just arrived. The list
// holds exactly the entries with a source tag naming e, in dispatch
// order, so the cost is e's consumer count, not the window's size.
// Consumers whose last tag resolves join their class's operand-ready list
// in that order. The list is emptied: e has completed, and no later
// dispatch waits on a completed producer.
func (c *Core) broadcast(e *entry) {
	for l := e.wakeHead; l.e != nil; {
		o, slot := l.e, l.k
		l = o.wakeNext[slot]
		o.wakeNext[slot] = wakeLink{}
		pending := false
		for k := 0; k < o.nsrc; k++ {
			if o.srcTag[k] == e.seq {
				o.srcTag[k] = -1
				o.srcVal[k] = e.destVal
				if o.isStore() && k == 0 && !o.addrKnown {
					o.addr = o.srcVal[0] + o.inst.Imm
					o.addrKnown = true
					c.storeAddrUnk.remove(o.seq)
				}
			} else if o.srcTag[k] != -1 {
				pending = true
			}
		}
		if !pending {
			// o still holds its RS slot: only RS instructions have
			// sources, and none issues before they are all ready.
			c.rsReady[o.class] = append(c.rsReady[o.class], o)
		}
	}
	e.wakeHead, e.wakeTail = wakeLink{}, wakeLink{}
}

// link appends consumer o, waiting on p through source slot k, to p's
// wakeup list.
func link(p, o *entry, k int) {
	l := wakeLink{e: o, k: k}
	if t := p.wakeTail; t.e != nil {
		t.e.wakeNext[t.k] = l
	} else {
		p.wakeHead = l
	}
	p.wakeTail = l
}

// cutWakeList drops from p's wakeup list every consumer younger than keep.
// Lists are in dispatch order, so the doomed consumers are a tail.
func cutWakeList(p *entry, keep int64) {
	var last wakeLink
	for l := p.wakeHead; l.e != nil; l = l.e.wakeNext[l.k] {
		if l.e.seq > keep {
			break
		}
		last = l
	}
	if last.e == nil {
		p.wakeHead = wakeLink{}
	} else {
		last.e.wakeNext[last.k] = wakeLink{}
	}
	p.wakeTail = last
}

// nilTail clears s[n:] so compacted entry queues hold no stale pointers
// into the pool.
func nilTail(s []*entry, n int) {
	for i := n; i < len(s); i++ {
		s[i] = nil
	}
}

func sortEntries(s []*entry, less func(a, b *entry) bool) {
	// Insertion sort: queues are short and usually nearly sorted.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ---------------------------------------------------------------------------
// squash

func (c *Core) squash(br *entry, cycle int64) {
	c.stats.Squashes++
	// Flush everything younger than the branch.
	cut := len(c.rob)
	for i, e := range c.rob {
		if e.seq > br.seq {
			cut = i
			break
		}
	}
	doomed := c.rob[cut:]
	c.rob = c.rob[:cut]
	c.unresolvedCB.dropYoungerThan(br.seq)
	c.incomplete.dropYoungerThan(br.seq)
	c.incompleteLoad.dropYoungerThan(br.seq)
	c.fenceSet.dropYoungerThan(br.seq)
	c.storeAddrUnk.dropYoungerThan(br.seq)
	// Unlink the doomed consumers from the surviving producers' wakeup
	// lists while their seqs are intact (recycle zeroes them). Completed
	// producers have empty lists.
	for _, e := range c.rob {
		if !e.completed && e.wakeHead.e != nil {
			cutWakeList(e, br.seq)
		}
	}
	undo := c.policy.UndoSpeculativeFills
	for _, e := range doomed {
		c.stats.SquashedInsts++
		if e.inRS {
			c.rsUsed--
		}
		if undo && e.isLoad() && !e.invisible && e.addrKnown &&
			(e.mstate == memWalking || e.mstate == memDone) &&
			e.level != cache.LevelL1 {
			// CleanupSpec: invalidate the lines this squashed load filled.
			c.sys.hier.Flush(e.addr)
		}
		if c.hook != nil {
			c.hook.Record(c.id, record(e, true))
		}
	}
	isDoomed := func(e *entry) bool { return e.seq > br.seq }
	for cls := range c.rsReady {
		c.rsReady[cls] = filterEntries(c.rsReady[cls], isDoomed)
	}
	c.memOrder = filterEntries(c.memOrder, isDoomed)
	c.executing = filterEntries(c.executing, isDoomed)
	c.wbQueue = filterEntries(c.wbQueue, isDoomed)
	for p := range c.euBusy {
		if c.euBusy[p] != nil && isDoomed(c.euBusy[p]) {
			// The non-pipelined unit keeps grinding on the dead op until its
			// scheduled completion (realistic: EUs are not squashable in the
			// baseline; see §5.4 for the defense that changes this).
			c.euBusy[p] = nil
		}
	}
	// Rebuild the rename map from the surviving entries.
	for i := range c.regMap {
		c.regMap[i] = -1
	}
	for _, e := range c.rob {
		if e.inst.HasDst() {
			c.regMap[e.inst.Dst] = e.seq
		}
	}
	// Every queue has been filtered; the doomed entries can go back to the
	// pool (and out of the ROB's backing array).
	for i, e := range doomed {
		c.recycle(e)
		doomed[i] = nil
	}
	// Redirect the front end.
	c.fetchBuf = c.fetchBuf[:0]
	c.fbCondBr, c.fbLoads = 0, 0
	c.ifPending = false
	c.lastIFLine = -1
	c.fetchOn = false
	c.redirectPend = true
	c.redirectAt = cycle + int64(c.cfg.RedirectPenalty)
	c.redirectPC = br.actualNext
	if c.policy.Filter.Sets > 0 {
		// The filter holds only speculative state.
		c.filter.InvalidateAll()
	}
}

func filterEntries(s []*entry, drop func(*entry) bool) []*entry {
	kept := s[:0]
	for _, e := range s {
		if !drop(e) {
			kept = append(kept, e)
		}
	}
	return kept
}

// ---------------------------------------------------------------------------
// retire

func (c *Core) retire(cycle int64) {
	popped := 0
	for n := 0; n < c.cfg.RetireWidth && popped < len(c.rob); n++ {
		e := c.rob[popped]
		if !e.completed {
			break
		}
		// Safety-deferred cache effects that have not fired yet must fire
		// no later than retirement.
		if e.isLoad() && e.invisible && !e.exposed {
			c.exposeLoad(e, cycle)
		}
		if e.invisibleFetch {
			// Shadow-I-structure commit (SafeSpec/MuonTrap): retiring an
			// invisibly fetched instruction makes its line architectural.
			line := mem.LineAddr(c.prog.InstAddr(e.pc))
			if !c.sys.hier.L1I(c.id).Contains(line) {
				c.sys.hier.AccessInst(c.id, line, true, cycle)
			}
		}
		switch e.inst.Op {
		case isa.Store:
			c.sys.mem.Write64(e.addr, e.srcVal[1])
			c.sys.hier.AccessData(c.id, e.addr, cache.KindDataWrite, true, cycle)
		case isa.Flush:
			c.sys.hier.Flush(e.addr)
		case isa.Fence:
			c.fenceSet.remove(e.seq)
		case isa.Halt:
			c.halted = true
		}
		if e.inst.HasDst() {
			c.archRegs[e.inst.Dst] = e.destVal
			if c.regMap[e.inst.Dst] == e.seq {
				c.regMap[e.inst.Dst] = -1
			}
		}
		if e.inRS {
			c.removeRS(e)
		}
		if e.isLoad() || e.isStore() {
			// Retirement is in order, so e is memOrder's front entry.
			for i, x := range c.memOrder {
				if x == e {
					copy(c.memOrder[i:], c.memOrder[i+1:])
					c.memOrder[len(c.memOrder)-1] = nil
					c.memOrder = c.memOrder[:len(c.memOrder)-1]
					break
				}
			}
		}
		popped++
		c.stats.Retired++
		if c.hook != nil {
			r := record(e, false)
			r.Retire = cycle
			c.hook.Record(c.id, r)
		}
		c.recycle(e)
		if c.halted {
			break
		}
	}
	// One compaction per cycle keeps the ROB anchored at its backing array's
	// base, so dispatch appends never reallocate in steady state.
	if popped > 0 {
		c.progressed = true
		m := copy(c.rob, c.rob[popped:])
		for i := m; i < m+popped; i++ {
			c.rob[i] = nil
		}
		c.rob = c.rob[:m]
	}
}

func record(e *entry, squashed bool) InstRecord {
	r := InstRecord{
		Seq: e.seq, PC: e.pc, Inst: e.inst,
		Fetch: e.fetchCycle, Dispatch: e.dispCycle,
		Issue: -1, Complete: -1, Retire: -1,
		Squashed: squashed, Level: e.level, Addr: e.addr,
	}
	if e.issued {
		r.Issue = e.issueCycle
	}
	if e.completed {
		r.Complete = e.completeCycle
	}
	return r
}

// ---------------------------------------------------------------------------
// dispatch

func (c *Core) dispatch(cycle int64) {
	for n := 0; n < c.cfg.DispatchWidth && len(c.fetchBuf) > 0; n++ {
		if len(c.rob) >= c.cfg.ROBSize {
			c.stats.ROBFullStallCycles++
			return
		}
		f := c.fetchBuf[0]
		needsRS := isa.OpClass(f.inst.Op) != isa.ClassNone
		if needsRS && c.rsUsed >= c.cfg.RSSize {
			c.stats.RSFullStallCycles++
			return
		}
		nf := copy(c.fetchBuf, c.fetchBuf[1:])
		c.fetchBuf = c.fetchBuf[:nf]
		if f.inst.IsCondBranch() {
			c.fbCondBr--
		}
		if f.inst.Op == isa.Load {
			c.fbLoads--
		}
		e := c.newEntry()
		e.seq, e.pc, e.inst = c.nextSeq, f.pc, f.inst
		e.class = isa.OpClass(f.inst.Op)
		e.fetchCycle, e.dispCycle = f.fetchCycle, cycle
		e.predTaken, e.predNext = f.predTaken, f.predNext
		e.invisibleFetch = f.invisibleFetch
		e.level = cache.LevelMem
		c.nextSeq++
		srcs, nsrc := f.inst.Uses()
		e.nsrc = nsrc
		for k := 0; k < nsrc; k++ {
			e.srcTag[k] = -1
			tag := c.regMap[srcs[k]]
			if tag == -1 {
				e.srcVal[k] = c.archRegs[srcs[k]]
				continue
			}
			// regMap names only in-flight producers, so prod is never nil.
			prod := c.robEntry(tag)
			if prod.completed {
				e.srcVal[k] = prod.destVal
				continue
			}
			e.srcTag[k] = tag
			if k == 0 || e.srcTag[0] != tag {
				// One link per producer: broadcast resolves every
				// source slot that names it.
				link(prod, e, k)
			}
		}
		ready := e.srcsReady()
		if f.inst.HasDst() {
			c.regMap[f.inst.Dst] = e.seq
		}
		if !needsRS {
			// Nop/Fence/Halt complete at dispatch and retire in order.
			e.completed = true
			e.completeCycle = cycle
		} else {
			e.inRS = true
			c.rsUsed++
			if ready {
				c.rsReady[e.class] = append(c.rsReady[e.class], e)
			}
			c.incomplete.add(e.seq)
			if e.inst.IsCondBranch() {
				c.unresolvedCB.add(e.seq)
			}
			if e.isLoad() {
				c.incompleteLoad.add(e.seq)
			}
		}
		if e.inst.Op == isa.Fence {
			c.fenceSet.add(e.seq)
		}
		if e.isStore() && e.srcTag[0] == -1 {
			e.addr = e.srcVal[0] + e.inst.Imm
			e.addrKnown = true
		}
		if e.isStore() && !e.addrKnown {
			c.storeAddrUnk.add(e.seq)
		}
		if e.isLoad() || e.isStore() {
			c.memOrder = append(c.memOrder, e)
		}
		c.rob = append(c.rob, e)
		c.progressed = true
	}
}

// ---------------------------------------------------------------------------
// fetch

// fetchShadowed reports whether an unresolved squash source (per the
// policy's shadow model) is in flight ahead of the fetch PC. Unlike the
// issue-side safety queries, this is a live view: the trackers and
// fetch-buffer counters are updated at the mutation site, so a branch that
// resolved earlier this same cycle already reads as resolved here.
func (c *Core) fetchShadowed() bool {
	switch c.policy.Shadow {
	case ShadowSpectre, ShadowSpectreTSO:
		return !c.unresolvedCB.empty() || c.fbCondBr > 0
	default:
		return !c.unresolvedCB.empty() || c.fbCondBr > 0 ||
			!c.incompleteLoad.empty() || c.fbLoads > 0
	}
}

// pushFetched appends f to the fetch buffer, maintaining the shadow
// counters fetchShadowed reads.
func (c *Core) pushFetched(f fetched) {
	if f.inst.IsCondBranch() {
		c.fbCondBr++
	}
	if f.inst.Op == isa.Load {
		c.fbLoads++
	}
	c.fetchBuf = append(c.fetchBuf, f)
}

func (c *Core) fetch(cycle int64) {
	if c.redirectPend && cycle >= c.redirectAt {
		c.redirectPend = false
		c.fetchPC = c.redirectPC
		c.fetchOn = true
		c.progressed = true
	}
	if !c.fetchOn {
		c.stats.FetchStallCycles++
		return
	}
	if c.policy.StallFetchInShadow && c.fetchShadowed() {
		c.stats.FetchStallCycles++
		return
	}
	if c.ifPending {
		if cycle < c.ifReadyAt {
			c.stats.FetchStallCycles++
			return
		}
		c.ifPending = false
		c.progressed = true
	}
	fetchedAny := false
	for n := 0; n < c.cfg.FetchWidth && len(c.fetchBuf) < c.cfg.FetchBufSize; n++ {
		if c.fetchPC < 0 || c.fetchPC >= c.prog.Len() {
			c.fetchOn = false
			c.progressed = true
			break
		}
		line := mem.LineAddr(c.prog.InstAddr(c.fetchPC))
		if line != c.lastIFLine {
			if !c.accessILine(line, cycle) {
				break // stalled on I-cache
			}
		}
		in := c.prog.Insts[c.fetchPC]
		f := fetched{pc: c.fetchPC, inst: in, fetchCycle: cycle,
			invisibleFetch: c.lastIFInvis}
		c.stats.Fetched++
		fetchedAny = true
		c.progressed = true
		switch {
		case in.Op == isa.Halt:
			f.predNext = c.fetchPC + 1
			c.pushFetched(f)
			c.fetchOn = false
			return
		case in.Op == isa.Jmp:
			f.predNext = in.Target
			c.pushFetched(f)
			c.fetchPC = in.Target
			return // fetch group ends at a taken control transfer
		case in.IsCondBranch():
			if c.policy.StallFetchInShadow {
				// Ideal-defense mode: never predict. Fetch stalls at the
				// branch and resumes via a redirect when it resolves, so
				// execution is bit-identical to its NoSpec counterpart.
				f.predNext = stalledBranch
				c.pushFetched(f)
				c.fetchOn = false
				return
			}
			if c.oracle != nil && c.oracleIdx < len(c.oracle) {
				f.predTaken = c.oracle[c.oracleIdx]
				c.oracleIdx++
			} else {
				f.predTaken = c.bp.Predict(c.fetchPC)
			}
			if f.predTaken {
				f.predNext = in.Target
			} else {
				f.predNext = c.fetchPC + 1
			}
			c.pushFetched(f)
			c.fetchPC = f.predNext
			return
		default:
			f.predNext = c.fetchPC + 1
			c.pushFetched(f)
			c.fetchPC++
		}
	}
	if !fetchedAny {
		c.stats.FetchStallCycles++
	}
}

// accessILine brings the instruction line into the frontend, returning
// false when fetch must stall this cycle.
func (c *Core) accessILine(line int64, cycle int64) bool {
	h := c.sys.hier
	mode := c.policy.IFetch
	shadowed := mode != IFetchVisible && c.fetchShadowed()
	visible := true
	if shadowed {
		switch mode {
		case IFetchInvisible:
			visible = false
		case IFetchDelay:
			if !h.L1I(c.id).Contains(line) {
				// Miss under shadow: stall until the shadow clears.
				return false
			}
			// In-shadow hit proceeds without a replacement update.
			c.lastIFLine = line
			c.lastIFInvis = false
			c.progressed = true
			return true
		}
	}
	resp := h.AccessInst(c.id, line, visible, cycle)
	c.lastIFLine = line
	c.lastIFInvis = !visible
	c.progressed = true
	if resp.Level == cache.LevelL1 {
		return true
	}
	c.ifPending = true
	c.ifReadyAt = resp.Ready
	return false
}

// ---------------------------------------------------------------------------
// idle-cycle fast-forward support

// idleStats snapshots the stall counters a provably idle cycle still
// increments; everything else in CoreStats only moves on progress cycles.
type idleStats struct {
	fetchStall, robStall, rsStall, gateStall, mshrRetries int64
}

func (c *Core) snapIdleStats() idleStats {
	return idleStats{
		fetchStall:  c.stats.FetchStallCycles,
		robStall:    c.stats.ROBFullStallCycles,
		rsStall:     c.stats.RSFullStallCycles,
		gateStall:   c.stats.IssueGateStalls,
		mshrRetries: c.stats.MSHRRetries,
	}
}

// applyIdleCycles accounts n fast-forwarded cycles exactly as if the core
// had re-run its last (idle) tick n more times: the per-cycle deltas that
// tick produced — captured by comparing against the pre-tick snapshot —
// are multiplied out. All other machine state is by construction unchanged
// by an idle tick.
func (c *Core) applyIdleCycles(n int64, pre idleStats) {
	st := &c.stats
	st.Cycles += n
	st.FetchStallCycles += n * (st.FetchStallCycles - pre.fetchStall)
	st.ROBFullStallCycles += n * (st.ROBFullStallCycles - pre.robStall)
	st.RSFullStallCycles += n * (st.RSFullStallCycles - pre.rsStall)
	st.IssueGateStalls += n * (st.IssueGateStalls - pre.gateStall)
	st.MSHRRetries += n * (st.MSHRRetries - pre.mshrRetries)
}

// nextEventAfter returns the earliest cycle strictly after now at which
// this core's tick could act differently than it just did: a pending
// redirect or I-fetch completing, an execution or hierarchy walk
// finishing, a busy execution unit freeing, or an outstanding MSHR entry
// expiring (which unblocks full-file load retries). Everything else the
// pipeline waits on — operand wakeups, safety-shadow clearing, fence
// retirement, structural slots — is driven by one of these completions
// and therefore happens on a cycle some prior tick made progress.
func (c *Core) nextEventAfter(now int64) int64 {
	next := noSeq
	minTo := func(t int64) {
		if t > now && t < next {
			next = t
		}
	}
	if c.redirectPend {
		minTo(c.redirectAt)
	}
	if c.ifPending {
		minTo(c.ifReadyAt)
	}
	for _, e := range c.executing {
		minTo(e.execDoneAt)
	}
	for _, e := range c.memOrder {
		if e.isLoad() && e.mstate == memWalking {
			minTo(e.memReady)
		}
	}
	for _, t := range c.euFreeAt {
		minTo(t)
	}
	minTo(c.sys.hier.DMSHR(c.id).NextReady(now))
	return next
}
