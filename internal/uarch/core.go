package uarch

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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
type memState uint8

const (
	memNone    memState = iota
	memRetry            // issued; waiting to (re)attempt the cache access
	memWalking          // access in flight; data arrives at memReadyAt
	memDelayed          // parked by an ActDelay policy decision
	memDone             // data obtained
)

// decoded is the static decode of one program instruction: the facts
// fetch, dispatch, issue, writeback and retire would otherwise look up in
// the isa instruction table for each dynamic instance. LoadProgram
// builds one per PC (see Core.decode).
type decoded struct {
	inst  isa.Inst
	class isa.Class
	// srcs[:nsrc] are the registers the instruction reads.
	srcs [2]isa.Reg
	nsrc int
	// hasDst: the instruction writes inst.Dst.
	hasDst bool
	condBr bool
	load   bool
	store  bool
}

// decodeInst returns the static decode of in.
func decodeInst(in isa.Inst) decoded {
	d := decoded{
		inst:   in,
		class:  isa.OpClass(in.Op),
		hasDst: in.HasDst(),
		condBr: in.IsCondBranch(),
		load:   in.Op == isa.Load,
		store:  in.Op == isa.Store,
	}
	d.srcs, d.nsrc = in.Uses()
	return d
}

// entry is one in-flight dynamic instruction (a ROB entry). Its flags sit
// next to each other, so an entry fills four cache lines, not five.
type entry struct {
	seq int64
	pc  int
	// dec is the instruction's row of the core's decode table.
	dec *decoded

	// renamed operands: srcTag[k] is the producer's seq or -1 when srcVal[k]
	// holds the value, for k < dec.nsrc.
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

	fetchCycle    int64
	dispCycle     int64
	issueCycle    int64
	execDoneAt    int64
	completeCycle int64
	destVal       int64
	port          int
	issued        bool
	completed     bool
	inRS          bool
	// invisibleFetch: see fetched.invisibleFetch.
	invisibleFetch bool

	// branches
	predTaken  bool
	predNext   int
	actualNext int

	// memory
	addrKnown bool
	invisible bool
	wasL1Hit  bool
	exposed   bool
	forwarded bool
	mstate    memState
	// fwdKnown is set at a load's first access attempt, when fwd records
	// the store it forwards from, or nil for none. By then every older
	// store's address is known and no older store can still be
	// dispatched, so a retrying load never needs to search again. The
	// store cannot issue, let alone retire, before its data arrives, and
	// the load forwards in the first LSU stage after that, so fwd names an
	// in-flight entry until it is cleared at the forward; a squash that
	// takes the store takes the younger load too.
	fwdKnown bool
	fwd      *entry
	addr     int64
	memReady int64
	level    cache.Level
	// parkUntil and parkSetFills park a load whose last access attempt
	// found the D-MSHR file full: parkUntil is the file's next fill then,
	// and parkSetFills the fill count of the load's L1D set, plus its
	// filter set under a filter policy (see Core.setFills). While that
	// count stands, a retry can succeed only once the file has a free slot
	// or holds the load's line, so lsuTick counts it without attempting
	// it (see Core.parked).
	parkUntil    int64
	parkSetFills uint64
}

// wakeLink is one link of a producer's wakeup list: the consumer, and the
// source slot k whose wakeNext[k] holds the next link. The zero link ends
// a list.
type wakeLink struct {
	e *entry
	k int
}

func (e *entry) isLoad() bool  { return e.dec.load }
func (e *entry) isStore() bool { return e.dec.store }
func (e *entry) isFlush() bool { return e.dec.inst.Op == isa.Flush }

// srcsReady reports whether all renamed operands have values.
func (e *entry) srcsReady() bool {
	for k := 0; k < e.dec.nsrc; k++ {
		if e.srcTag[k] != -1 {
			return false
		}
	}
	return true
}

// fetched is a decoded instruction waiting in the fetch buffer.
type fetched struct {
	pc         int
	dec        *decoded
	predTaken  bool
	predNext   int
	fetchCycle int64
	// invisibleFetch marks instructions whose line was fetched invisibly
	// (IFetchInvisible shadow structures); the line is exposed when the
	// instruction retires, modelling the shadow-I-structure commit.
	invisibleFetch bool
}

// noSeq is the seq limit when no in-flight entry satisfies a predicate:
// older than nothing.
const noSeq = int64(math.MaxInt64)

// The ROB, memOrder, the LSU list and the fetch buffer are queues held as
// a window of a backing array twice their structure's capacity, built
// once in newCore. A pop reslices the front; a push that reaches the
// array's end first slides the window back to the base. Each slot is
// copied about once per trip through the array instead of once per pop,
// and nothing allocates.

// newQueue returns the backing array for a queue of at most n elements,
// and the empty queue.
func newQueue[T any](n int) (arr, q []T) {
	arr = make([]T, 2*n)
	return arr, arr[:0]
}

// pushQueue appends v to q, a queue in arr.
func pushQueue[T any](arr, q []T, v T) []T {
	if len(q) == cap(q) {
		n := copy(arr, q)
		clear(arr[n:])
		q = arr[:n]
	}
	return append(q, v)
}

// insertQueue inserts v at index i of q, a queue in arr.
func insertQueue[T any](arr, q []T, i int, v T) []T {
	q = pushQueue(arr, q, v)
	copy(q[i+1:], q[i:])
	q[i] = v
	return q
}

// popQueue drops q's front element, zeroing its slot.
func popQueue[T any](q []T) []T {
	var zero T
	q[0] = zero
	return q[1:]
}

// resetQueue empties q, a queue in arr, and moves it back to arr's base.
func resetQueue[T any](arr, q []T) []T {
	clear(q)
	return arr[:0]
}

// Core is one out-of-order core.
type Core struct {
	id  int
	sys *System
	cfg *Config

	prog   *isa.Program
	policy SpecPolicy
	// decode is the decode table of the last program loaded, indexed by
	// PC. LoadProgram rebuilds it in place only when the instructions it
	// is given differ from the ones the rows hold, and reset keeps it, so
	// a trial loop that resets the machine and reloads the same victim
	// validates and decodes it once, and reloading a program of no more
	// instructions than any before it allocates nothing. Fetched
	// instructions and ROB entries point into it.
	decode []decoded
	// filter is the private speculative buffer of a policy with a Filter
	// geometry (MuonTrap's filter cache), live while such a policy is
	// attached. LoadProgram builds it, or resets the one the core already
	// holds when the geometry matches, so no policy value carries filter
	// state from one run into the next and steady-state trials reuse it.
	filter *cache.Cache

	archRegs [isa.NumRegs]int64
	// regMap maps an architectural register to its youngest in-flight
	// producer, or nil when the value is architectural. No slot outlives
	// its entry: retire clears a slot naming the retiring entry (the
	// oldest, so no other in-flight entry writes that register), squash
	// rebuilds the map from the survivors, and LoadProgram and reset,
	// which recycle every entry, clear it.
	regMap [isa.NumRegs]*entry

	// rob holds the in-flight window in program order. Dispatch appends
	// strictly increasing seqs, retire pops the front and squash cuts the
	// tail, so the window is always seq-sorted (with gaps where squashes
	// consumed seqs) and tail-cuttable by binary search. It is a queue in
	// robArr (see pushQueue), as memOrder is in memArr, lsuLoads in lsuArr
	// and fetchBuf in fetchArr.
	rob    []*entry
	robArr []*entry
	// rsUsed counts the entries holding an RS slot (inRS). Dispatch takes
	// a slot; issue, releaseRS, retire and squash give it back. No stage
	// needs the slots in any order, so the RS is just this count.
	rsUsed int
	// rsReady lists, per execution class and in seq order, the unissued RS
	// entries whose source operands are all ready: the only entries issue
	// can pick. An entry joins at dispatch if its sources are ready (an
	// append: it is the youngest), else in broadcast when its last tag
	// resolves, and again when preempt cancels its execution. It leaves
	// when it issues, even if HoldRSUntilSafe keeps its RS slot, or at
	// squash, which cuts the lists' tails. Readiness never reverts while
	// an entry holds its slot, so the lists never need rescanning. Each is
	// a queue in rsArr (see pushQueue), so taking its oldest is a pop.
	// readyMask has bit cls set exactly when rsReady[cls] is non-empty.
	rsReady   [isa.NumClasses][]*entry
	rsArr     [isa.NumClasses][]*entry
	readyMask uint32
	// memOrder lists in-flight loads and stores in program order, for the
	// store-forwarding search.
	memOrder []*entry
	memArr   []*entry
	// lsuLoads lists, in seq order, the issued loads the LSU still has work
	// for: an access to (re)attempt, a walk to finish, a delayed
	// re-execution or a deferred expose. A load joins at issue and leaves
	// at the end of the lsuTick visit after which it is done and either
	// visible or exposed, or at retire, after retire's expose; squash cuts
	// the tail. It is memOrder restricted to the loads lsuTick acts on, so
	// lsuTick visits them, and allocates MSHRs, in memOrder's order.
	lsuLoads []*entry
	lsuArr   []*entry

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
	fetchArr     []fetched
	lastIFLine   int64
	lastIFInvis  bool
	ifPending    bool
	ifReadyAt    int64
	redirectPend bool
	redirectAt   int64
	redirectPC   int

	// Shadow/safety cursors: each indexes the oldest in-flight entry that
	// may satisfy one predicate, in the in-order queue holding such
	// entries. cbCur, incCur and fenceCur index the ROB: an unresolved
	// conditional branch, an incomplete instruction, a fence (every fence
	// in the ROB is unretired). loadCur and storeCur index memOrder: an
	// incomplete load, a store whose address is unknown. No entry before a
	// cursor satisfies its predicate, and none ever will again: completion,
	// address resolution and retirement are final, and dispatch only
	// appends younger entries. So a query (oldestUnresolvedCB and the
	// others) only moves its cursor forward, past entries that stopped
	// matching; retire shifts a cursor down when it pops its queue's head,
	// squash clamps it to the cut queue and clearPipeline zeroes it.
	// safe() and issue compare against the seqs the queries return.
	cbCur, incCur, fenceCur, loadCur, storeCur int
	// fbCondBr/fbLoads count conditional branches and loads sitting in the
	// fetch buffer — the fetch-buffer half of fetchShadowed.
	fbCondBr int
	fbLoads  int

	// portMask[p] has bit cls set for each class port p serves, so a port
	// whose classes have nothing ready costs issue one AND with readyMask.
	// classPorts[cls] counts the ports whose mask has bit cls.
	portMask   []uint32
	classPorts [isa.NumClasses]int64

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
	c.portMask = make([]uint32, len(sys.cfg.Ports))
	for p := range sys.cfg.Ports {
		for _, cls := range sys.cfg.Ports[p].Classes {
			c.portMask[p] |= 1 << cls
		}
		for m := c.portMask[p]; m != 0; m &= m - 1 {
			c.classPorts[bits.TrailingZeros32(m)]++
		}
	}
	n := sys.cfg.ROBSize
	c.robArr, c.rob = newQueue[*entry](n)
	c.memArr, c.memOrder = newQueue[*entry](n)
	c.lsuArr, c.lsuLoads = newQueue[*entry](n)
	c.fetchArr, c.fetchBuf = newQueue[fetched](sys.cfg.FetchBufSize)
	for cls := range c.rsReady {
		c.rsArr[cls], c.rsReady[cls] = newQueue[*entry](sys.cfg.RSSize)
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
// so it is scrubbed here. Only the port e last issued to can name it.
func (c *Core) recycle(e *entry) {
	if c.euBusy[e.port] == e {
		c.euBusy[e.port] = nil
	}
	*e = entry{}
	c.freeEntries = append(c.freeEntries, e)
}

// seqCut returns how many entries of the seq-sorted s have a seq of at
// most seq: the index where the entries younger than seq begin. Most
// cuts fall at an end of s (an append, a head removal, no fence), so the
// ends are checked before the binary search.
func seqCut(s []*entry, seq int64) int {
	lo, hi := 0, len(s)
	if hi == 0 || s[0].seq > seq {
		return 0
	}
	if s[hi-1].seq <= seq {
		return hi
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cutYoungerThan drops from the seq-sorted s every entry younger than
// keep, nilling the dropped slots.
func cutYoungerThan(s []*entry, keep int64) []*entry {
	i := seqCut(s, keep)
	clear(s[i:])
	return s[:i]
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
	c.rob = resetQueue(c.robArr, c.rob)
	c.rsUsed = 0
	for cls := range c.rsReady {
		c.rsReady[cls] = resetQueue(c.rsArr[cls], c.rsReady[cls])
	}
	c.readyMask = 0
	c.memOrder = resetQueue(c.memArr, c.memOrder)
	c.lsuLoads = resetQueue(c.lsuArr, c.lsuLoads)
	c.executing = truncEntries(c.executing)
	c.wbQueue = truncEntries(c.wbQueue)
	c.fetchBuf = resetQueue(c.fetchArr, c.fetchBuf)
	c.cbCur, c.incCur, c.fenceCur, c.loadCur, c.storeCur = 0, 0, 0, 0, 0
	c.fbCondBr, c.fbLoads = 0, 0
	for i := range c.euFreeAt {
		c.euFreeAt[i] = 0
		c.euBusy[i] = nil
	}
}

// reset restores the core to the state newCore returns: no program, no
// policy, architectural state zeroed, predictor fresh. Storage (queues,
// ready lists, entry pool) is retained for reuse, and so is the decode
// table: it depends only on the instructions it was built from, which
// LoadProgram compares before reusing it.
func (c *Core) reset() {
	c.clearPipeline()
	c.prog = nil
	c.policy = SpecPolicy{}
	for i := range c.archRegs {
		c.archRegs[i] = 0
	}
	c.regMap = [isa.NumRegs]*entry{}
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
// policy's filter buffer is not: it starts empty on every load. prog is
// validated and decoded here, once per instruction, so the core runs its
// instructions as they are at the call. When they equal the ones the
// decode table already holds (the same victim reloaded every trial), the
// table is valid as it stands and neither step runs again.
func (c *Core) LoadProgram(prog *isa.Program, policy SpecPolicy) error {
	if prog.CodeBase < 0 || !c.decodes(prog.Insts) {
		if err := prog.Validate(); err != nil {
			return err
		}
		c.decode = slices.Grow(c.decode[:0], len(prog.Insts))
		for _, in := range prog.Insts {
			c.decode = append(c.decode, decodeInst(in))
		}
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
	c.regMap = [isa.NumRegs]*entry{}
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

// decodes reports whether the decode table holds exactly insts, row for
// row. It compares the rows' own copies, not the slice, so a program
// mutated since its last load is validated and decoded again. An empty
// table holds nothing, so an empty program still fails validation.
func (c *Core) decodes(insts []isa.Inst) bool {
	if len(c.decode) == 0 || len(c.decode) != len(insts) {
		return false
	}
	for i := range insts {
		if c.decode[i].inst != insts[i] {
			return false
		}
	}
	return true
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

//speclint:allocfree
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

// seqAt returns the seq of q[i], or noSeq when i is q's length.
func seqAt(q []*entry, i int) int64 {
	if i == len(q) {
		return noSeq
	}
	return q[i].seq
}

// oldestUnresolvedCB returns the seq of the oldest in-flight conditional
// branch that has not resolved, or noSeq (see Core.cbCur).
//
//speclint:allocfree
func (c *Core) oldestUnresolvedCB() int64 {
	i := c.cbCur
	for i < len(c.rob) && (!c.rob[i].dec.condBr || c.rob[i].completed) {
		i++
	}
	c.cbCur = i
	return seqAt(c.rob, i)
}

// oldestIncomplete returns the seq of the oldest in-flight entry that has
// not completed, or noSeq.
//
//speclint:allocfree
func (c *Core) oldestIncomplete() int64 {
	i := c.incCur
	for i < len(c.rob) && c.rob[i].completed {
		i++
	}
	c.incCur = i
	return seqAt(c.rob, i)
}

// oldestFence returns the seq of the oldest unretired fence, or noSeq.
//
//speclint:allocfree
func (c *Core) oldestFence() int64 {
	i := c.fenceCur
	for i < len(c.rob) && c.rob[i].dec.inst.Op != isa.Fence {
		i++
	}
	c.fenceCur = i
	return seqAt(c.rob, i)
}

// oldestIncompleteLoad returns the seq of the oldest in-flight load that
// has not completed, or noSeq.
//
//speclint:allocfree
func (c *Core) oldestIncompleteLoad() int64 {
	i := c.loadCur
	for i < len(c.memOrder) && (!c.memOrder[i].isLoad() || c.memOrder[i].completed) {
		i++
	}
	c.loadCur = i
	return seqAt(c.memOrder, i)
}

// oldestUnknownStore returns the seq of the oldest in-flight store whose
// address is unknown, or noSeq.
//
//speclint:allocfree
func (c *Core) oldestUnknownStore() int64 {
	i := c.storeCur
	for i < len(c.memOrder) && (!c.memOrder[i].isStore() || c.memOrder[i].addrKnown) {
		i++
	}
	c.storeCur = i
	return seqAt(c.memOrder, i)
}

// safe reports whether e is non-speculative under model: no entry
// strictly older than e satisfies the model's shadow predicate. That is a
// compare against the seq of the oldest entry that does, which the
// cursors give without a ROB scan. Within a tick, completion and address
// resolution happen only in writeback and later stages, after every safe()
// consumer (releaseRS, lsuTick, issue) has run, so those stages read the
// cycle-start limits.
func (c *Core) safe(e *entry, model ShadowModel) bool {
	return e.seq <= c.safeLimit(model)
}

// safeLimit returns the seq at or below which every entry is safe under
// model: the oldest entry satisfying the model's shadow predicate.
//
//speclint:allocfree
func (c *Core) safeLimit(model ShadowModel) int64 {
	switch model {
	case ShadowSpectre:
		return c.oldestUnresolvedCB()
	case ShadowSpectreTSO:
		return min(c.oldestUnresolvedCB(), c.oldestIncompleteLoad())
	case ShadowFuturistic:
		return c.oldestIncomplete()
	default:
		panic(fmt.Sprintf("uarch: unknown shadow model %d", model))
	}
}

// releaseRS frees reservation stations. Normally an RS entry frees at
// issue; under HoldRSUntilSafe (advanced defense rule 1) it frees only once
// the instruction is safe. The safe limit is fixed until writeback, and
// the ROB is seq-sorted, so the safe entries are a prefix of the ROB: the
// walk stops at the first unsafe one.
//
//speclint:allocfree
func (c *Core) releaseRS() {
	if !c.cfg.HoldRSUntilSafe {
		return
	}
	lim := c.safeLimit(c.policy.Shadow)
	for _, e := range c.rob {
		if e.seq > lim {
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

// issue gives each port, in port order, the oldest entry (the youngest
// under YoungestFirstIssue) on the ready lists of the classes it serves
// that the gates let through. Every gate is a seq limit, fixed for the
// whole stage because completion, address resolution and retirement
// happen only in writeback and later (see safe):
//
//   - nothing younger than an unretired fence issues (lfence semantics);
//   - under a policy that gates issue (the fence defenses), nothing
//     younger than the safe limit issues;
//   - a load waits until every older store address is known
//     (conservative disambiguation: this machine never replays on memory
//     ordering). A flush shares the load class but not this gate.
//
// The ready lists are seq-sorted, so a pick is the first (or last) entry
// under the limits, and a port visits only the lists whose oldest entry
// is under them. IssueGateStalls counts each entry the defense gates, once
// per serving port per cycle: on a seq-sorted list these are the entries
// between the safe limit and the fence limit. No limit ever falls below
// an in-flight entry that was once under it, so neither an entry issued
// earlier in the stage nor one that preemption puts back is gated: each
// class's gated range is fixed for the stage, and is counted once and
// added once per port serving the class.
//
//speclint:allocfree
func (c *Core) issue(cycle int64) {
	if c.readyMask == 0 {
		return
	}
	fenceLim := c.oldestFence()
	lim, gateLim := fenceLim, noSeq
	if !c.policy.CanIssue(false) {
		gateLim = c.safeLimit(c.policy.Shadow)
		lim = min(lim, gateLim)
	}
	// open has a bit for each class whose list holds an entry under lim.
	var open uint32
	for m := c.readyMask; m != 0; m &= m - 1 {
		cls := bits.TrailingZeros32(m)
		l := c.rsReady[cls]
		if l[0].seq <= lim {
			open |= 1 << cls
		}
		if gateLim < fenceLim {
			c.stats.IssueGateStalls += c.classPorts[cls] * int64(seqCut(l, fenceLim)-seqCut(l, gateLim))
		}
	}
	if open == 0 {
		return
	}
	storeLim := c.oldestUnknownStore()
	for p := range c.cfg.Ports {
		var best *entry
		for m := c.readyMask & open & c.portMask[p]; m != 0; m &= m - 1 {
			l := c.rsReady[bits.TrailingZeros32(m)]
			if e := c.pick(l, lim, storeLim); e != nil && (best == nil || c.before(e, best)) {
				best = e
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
				open |= 1 << busy.dec.class // busy issued under an earlier limit
			} else {
				continue
			}
		}
		c.issueTo(p, best, cycle)
	}
}

// pick returns the entry issue takes from the seq-sorted ready list l, or
// nil: the oldest entry (the youngest under YoungestFirstIssue) whose seq
// is at most lim and, for a load, at most storeLim.
func (c *Core) pick(l []*entry, lim, storeLim int64) *entry {
	if !c.cfg.YoungestFirstIssue {
		for _, e := range l {
			if e.seq > lim {
				break
			}
			if !e.isLoad() || e.seq <= storeLim {
				return e
			}
		}
		return nil
	}
	for i := seqCut(l, lim) - 1; i >= 0; i-- {
		if e := l[i]; !e.isLoad() || e.seq <= storeLim {
			return e
		}
	}
	return nil
}

// before reports whether issue prefers a to b: the older one, or the
// younger under YoungestFirstIssue.
func (c *Core) before(a, b *entry) bool {
	if c.cfg.YoungestFirstIssue {
		return a.seq > b.seq
	}
	return a.seq < b.seq
}

// insertReady puts e, an unissued RS entry whose operands are all ready,
// on its class's ready list in seq order. At dispatch e is the youngest,
// so it lands at the end.
func (c *Core) insertReady(e *entry) {
	cls := e.dec.class
	l := c.rsReady[cls]
	c.rsReady[cls] = insertQueue(c.rsArr[cls], l, seqCut(l, e.seq), e)
	c.readyMask |= 1 << cls
}

// removeReady takes e, which is issuing, off its class's ready list,
// shifting whichever side of it is shorter: taking the oldest is a pop.
func (c *Core) removeReady(e *entry) {
	cls := e.dec.class
	l := c.rsReady[cls]
	if i := seqCut(l, e.seq-1); i < len(l)-1-i {
		copy(l[1:i+1], l[:i])
		l = popQueue(l)
	} else {
		copy(l[i:], l[i+1:])
		l[len(l)-1] = nil
		l = l[:len(l)-1]
	}
	c.rsReady[cls] = l
	if len(l) == 0 {
		c.readyMask &^= 1 << cls
	}
}

// preempt cancels busy's execution on port p and returns it to its ready
// list (it still holds its RS entry under HoldRSUntilSafe), where ports
// after p can pick it this same cycle.
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
	c.insertReady(busy)
}

func (c *Core) issueTo(p int, e *entry, cycle int64) {
	c.progressed = true
	c.removeReady(e)
	e.issued = true
	e.issueCycle = cycle
	e.port = p
	lat := int64(isa.ClassLatency(e.dec.class))
	switch {
	case e.isLoad():
		// One cycle of AGU/port occupancy; the LSU walks the hierarchy from
		// the next cycle on.
		e.addr = e.srcVal[0] + e.dec.inst.Imm
		e.addrKnown = true
		e.mstate = memRetry
		c.euFreeAt[p] = cycle + 1
		c.lsuLoads = insertQueue(c.lsuArr, c.lsuLoads, seqCut(c.lsuLoads, e.seq), e)
	case e.isFlush():
		// Address generation only: the eviction applies at retire, so a
		// squashed flush has no effect (clflush is not transient; like on
		// x86 it must be fenced before a reload can be expected to miss).
		e.addr = e.srcVal[0] + e.dec.inst.Imm
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
	case e.dec.condBr:
		taken := emu.BranchTaken(e.dec.inst.Op, e.srcVal[0], e.srcVal[1])
		if taken {
			e.actualNext = e.dec.inst.Target
		} else {
			e.actualNext = e.pc + 1
		}
		e.execDoneAt = cycle + lat
		c.executing = append(c.executing, e)
		c.euFreeAt[p] = cycle + 1
	case e.dec.inst.Op == isa.Jmp:
		e.actualNext = e.dec.inst.Target
		e.execDoneAt = cycle + lat
		c.executing = append(c.executing, e)
		c.euFreeAt[p] = cycle + 1
	default:
		e.destVal = c.compute(e, cycle)
		e.execDoneAt = cycle + lat
		c.executing = append(c.executing, e)
		if isa.Pipelined(e.dec.class) {
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

// removeRS gives back e's RS slot. e has issued, so it is on no ready
// list.
func (c *Core) removeRS(e *entry) {
	e.inRS = false
	c.rsUsed--
}

// compute evaluates a register-writing non-memory instruction.
func (c *Core) compute(e *entry, cycle int64) int64 {
	if e.dec.inst.Op == isa.RdCycle {
		return cycle
	}
	return emu.ALU(e.dec.inst, e.srcVal[0], e.srcVal[1])
}

// ---------------------------------------------------------------------------
// writeback

//speclint:allocfree
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
		if e.dec.hasDst {
			c.broadcast(e)
		}
		if e.dec.condBr {
			if e.predNext == stalledBranch {
				// Ideal-defense mode: fetch waited at this branch; resume
				// it at the resolved target. Nothing younger exists, so no
				// squash is needed and the predictor is never consulted.
				c.redirectPend = true
				c.redirectAt = cycle + int64(c.cfg.RedirectPenalty)
				c.redirectPC = e.actualNext
			} else {
				mispred := e.actualNext != e.predNext
				c.bp.Update(e.pc, e.actualNext == e.dec.inst.Target, mispred)
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
// Consumers whose last tag resolves join their class's ready list. The
// wakeup list is emptied: e has completed, and no later dispatch waits on
// a completed producer.
func (c *Core) broadcast(e *entry) {
	for l := e.wakeHead; l.e != nil; {
		o, slot := l.e, l.k
		l = o.wakeNext[slot]
		o.wakeNext[slot] = wakeLink{}
		pending := false
		for k := 0; k < o.dec.nsrc; k++ {
			if o.srcTag[k] == e.seq {
				o.srcTag[k] = -1
				o.srcVal[k] = e.destVal
				if o.isStore() && k == 0 && !o.addrKnown {
					o.addr = o.srcVal[0] + o.dec.inst.Imm
					o.addrKnown = true
				}
			} else if o.srcTag[k] != -1 {
				pending = true
			}
		}
		if !pending {
			// o still holds its RS slot: only RS instructions have
			// sources, and none issues before they are all ready.
			c.insertReady(o)
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
	cut := seqCut(c.rob, br.seq)
	doomed := c.rob[cut:]
	c.rob = c.rob[:cut]
	c.cbCur, c.incCur, c.fenceCur = min(c.cbCur, cut), min(c.incCur, cut), min(c.fenceCur, cut)
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
	for cls := range c.rsReady {
		if c.rsReady[cls] = cutYoungerThan(c.rsReady[cls], br.seq); len(c.rsReady[cls]) == 0 {
			c.readyMask &^= 1 << cls
		}
	}
	c.memOrder = cutYoungerThan(c.memOrder, br.seq)
	c.loadCur, c.storeCur = min(c.loadCur, len(c.memOrder)), min(c.storeCur, len(c.memOrder))
	c.lsuLoads = cutYoungerThan(c.lsuLoads, br.seq)
	isDoomed := func(e *entry) bool { return e.seq > br.seq }
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
	// Rebuild the rename map from the surviving entries, so that no slot
	// names a doomed one.
	c.regMap = [isa.NumRegs]*entry{}
	for _, e := range c.rob {
		if e.dec.hasDst {
			c.regMap[e.dec.inst.Dst] = e
		}
	}
	// Every queue has been filtered; the doomed entries can go back to the
	// pool (and out of the ROB's backing array).
	for i, e := range doomed {
		c.recycle(e)
		doomed[i] = nil
	}
	// Redirect the front end.
	c.fetchBuf = resetQueue(c.fetchArr, c.fetchBuf)
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

//speclint:allocfree
func (c *Core) retire(cycle int64) {
	for n := 0; n < c.cfg.RetireWidth && len(c.rob) > 0; n++ {
		e := c.rob[0]
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
		switch e.dec.inst.Op {
		case isa.Store:
			c.sys.mem.Write64(e.addr, e.srcVal[1])
			c.sys.hier.AccessData(c.id, e.addr, cache.KindDataWrite, true, cycle)
		case isa.Flush:
			c.sys.hier.Flush(e.addr)
		case isa.Halt:
			c.halted = true
		}
		if e.dec.hasDst {
			c.archRegs[e.dec.inst.Dst] = e.destVal
			if c.regMap[e.dec.inst.Dst] == e {
				c.regMap[e.dec.inst.Dst] = nil
			}
		}
		if e.inRS {
			c.removeRS(e)
		}
		// Retirement is in order, so e is the front entry of the ROB, of
		// memOrder if it is a memory op, and of the LSU list if it is on it.
		// The cursors into a popped queue shift down with its entries.
		if e.isLoad() || e.isStore() {
			c.memOrder = popQueue(c.memOrder)
			c.loadCur, c.storeCur = max(c.loadCur-1, 0), max(c.storeCur-1, 0)
		}
		if len(c.lsuLoads) > 0 && c.lsuLoads[0] == e {
			c.lsuLoads = popQueue(c.lsuLoads)
		}
		c.rob = popQueue(c.rob)
		c.cbCur, c.incCur, c.fenceCur = max(c.cbCur-1, 0), max(c.incCur-1, 0), max(c.fenceCur-1, 0)
		c.progressed = true
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
}

func record(e *entry, squashed bool) InstRecord {
	r := InstRecord{
		Seq: e.seq, PC: e.pc, Inst: e.dec.inst,
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

//speclint:allocfree
func (c *Core) dispatch(cycle int64) {
	for n := 0; n < c.cfg.DispatchWidth && len(c.fetchBuf) > 0; n++ {
		if len(c.rob) >= c.cfg.ROBSize {
			c.stats.ROBFullStallCycles++
			return
		}
		f := c.fetchBuf[0]
		d := f.dec
		needsRS := d.class != isa.ClassNone
		if needsRS && c.rsUsed >= c.cfg.RSSize {
			c.stats.RSFullStallCycles++
			return
		}
		c.fetchBuf = popQueue(c.fetchBuf)
		if d.condBr {
			c.fbCondBr--
		}
		if d.load {
			c.fbLoads--
		}
		e := c.newEntry()
		e.seq, e.pc, e.dec = c.nextSeq, f.pc, d
		e.fetchCycle, e.dispCycle = f.fetchCycle, cycle
		e.predTaken, e.predNext = f.predTaken, f.predNext
		e.invisibleFetch = f.invisibleFetch
		e.level = cache.LevelMem
		c.nextSeq++
		for k := 0; k < d.nsrc; k++ {
			e.srcTag[k] = -1
			prod := c.regMap[d.srcs[k]]
			if prod == nil {
				e.srcVal[k] = c.archRegs[d.srcs[k]]
				continue
			}
			if prod.completed {
				e.srcVal[k] = prod.destVal
				continue
			}
			e.srcTag[k] = prod.seq
			if k == 0 || e.srcTag[0] != prod.seq {
				// One link per producer: broadcast resolves every
				// source slot that names it.
				link(prod, e, k)
			}
		}
		ready := e.srcsReady()
		if d.hasDst {
			c.regMap[d.inst.Dst] = e
		}
		if !needsRS {
			// Nop/Fence/Halt complete at dispatch and retire in order.
			e.completed = true
			e.completeCycle = cycle
		} else {
			e.inRS = true
			c.rsUsed++
			if ready {
				c.insertReady(e)
			}
		}
		if d.store && e.srcTag[0] == -1 {
			e.addr = e.srcVal[0] + d.inst.Imm
			e.addrKnown = true
		}
		if d.load || d.store {
			c.memOrder = pushQueue(c.memArr, c.memOrder, e)
		}
		c.rob = pushQueue(c.robArr, c.rob, e)
		c.progressed = true
	}
}

// ---------------------------------------------------------------------------
// fetch

// fetchShadowed reports whether an unresolved squash source (per the
// policy's shadow model) is in flight ahead of the fetch PC. Fetch runs
// after writeback, so unlike the issue-side safety queries this is a live
// view: a branch that resolved earlier this same cycle already reads as
// resolved here.
//
//speclint:allocfree
func (c *Core) fetchShadowed() bool {
	switch c.policy.Shadow {
	case ShadowSpectre, ShadowSpectreTSO:
		return c.fbCondBr > 0 || c.oldestUnresolvedCB() != noSeq
	default:
		return c.fbCondBr > 0 || c.fbLoads > 0 ||
			c.oldestUnresolvedCB() != noSeq || c.oldestIncompleteLoad() != noSeq
	}
}

// pushFetched appends f to the fetch buffer, maintaining the shadow
// counters fetchShadowed reads.
func (c *Core) pushFetched(f fetched) {
	if f.dec.condBr {
		c.fbCondBr++
	}
	if f.dec.load {
		c.fbLoads++
	}
	c.fetchBuf = pushQueue(c.fetchArr, c.fetchBuf, f)
}

//speclint:allocfree
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
		if c.fetchPC < 0 || c.fetchPC >= len(c.decode) {
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
		d := &c.decode[c.fetchPC]
		f := fetched{pc: c.fetchPC, dec: d, fetchCycle: cycle,
			invisibleFetch: c.lastIFInvis}
		c.stats.Fetched++
		fetchedAny = true
		c.progressed = true
		switch {
		case d.inst.Op == isa.Halt:
			f.predNext = c.fetchPC + 1
			c.pushFetched(f)
			c.fetchOn = false
			return
		case d.inst.Op == isa.Jmp:
			f.predNext = d.inst.Target
			c.pushFetched(f)
			c.fetchPC = d.inst.Target
			return // fetch group ends at a taken control transfer
		case d.condBr:
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
				f.predNext = d.inst.Target
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
// expiring (which unblocks full-file load retries and ends every parked
// load's wait; a park's other end, a line fill, only happens on a cycle
// that makes progress). Everything else the
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
	for _, e := range c.lsuLoads {
		if e.mstate == memWalking {
			minTo(e.memReady)
		}
	}
	for _, t := range c.euFreeAt {
		minTo(t)
	}
	minTo(c.sys.hier.DMSHR(c.id).NextReady(now))
	return next
}
