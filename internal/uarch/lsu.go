package uarch

import (
	"specinterference/internal/cache"
	"specinterference/internal/mem"
)

// lsuTick advances the loads on the LSU list, in program order:
// (re)attempts cache accesses, finishes walks whose data arrived,
// re-issues delayed loads that became safe, and performs deferred
// exposes/touches for invisibly-completed loads. A load that leaves its
// visit done and either visible or exposed has nothing left for the LSU
// and drops off the list.
//
//speclint:allocfree
func (c *Core) lsuTick(cycle int64) {
	model := c.policy.Shadow
	kept := c.lsuLoads[:0]
	for _, e := range c.lsuLoads {
		switch e.mstate {
		case memRetry:
			if e.parkUntil != 0 && c.parked(e, cycle) {
				// Parked on a full D-MSHR file: the attempt would fail
				// the same way, so only count it.
				c.stats.MSHRRetries++
				break
			}
			c.attemptAccess(e, cycle)
			// An attempt that leaves the load retrying changes nothing a
			// later cycle reads: it waited on its forwarding store's data,
			// or found the MSHR file full. The latter marks e
			// invisible/wasL1Hit and parks it, and the first attempt
			// records the forwarding store, but those writes are
			// idempotent and stay the same until the next fill, so an idle
			// tick that fast-forward repeats reproduces them exactly. So
			// does a re-park (see parked).
			if e.mstate != memRetry {
				c.progressed = true
			}
		case memDelayed:
			if c.safe(e, model) {
				// Delay-on-Miss re-execution: the load is non-speculative
				// now, so it performs a normal visible access.
				c.progressed = true
				c.startWalk(e, cycle, true)
			}
		case memWalking:
			if e.memReady <= cycle {
				c.progressed = true
				c.finishLoad(e, cycle)
			}
		case memDone:
			if e.invisible && !e.exposed && c.safe(e, model) {
				c.progressed = true
				c.exposeLoad(e, cycle)
			}
		}
		if e.mstate != memDone || (e.invisible && !e.exposed) {
			kept = append(kept, e)
		}
	}
	clear(c.lsuLoads[len(kept):])
	c.lsuLoads = kept
}

// setFills returns how many lines the core's L1D, and its filter when
// the policy has one, have installed in the sets addr maps to since the
// last reset. A load that found the D-MSHR file full can find its line
// present only after a fill these sets count. Both counts only grow while
// a load is in flight, so their sum stands exactly while each does.
func (c *Core) setFills(addr int64) uint64 {
	n := c.sys.hier.L1D(c.id).SetFills(addr)
	if c.policy.Filter.Sets > 0 {
		n += c.filter.SetFills(addr)
	}
	return n
}

// parked reports whether e, a load parked on a full D-MSHR file (see
// startWalk), would fail its retry this cycle the same way. While no
// line has been installed in its sets, only a free slot in the file or
// its line in the file can let the retry succeed:
//
//   - before the park deadline, the file's earliest fill, nothing is
//     reaped, so nothing can be allocated and the load's line cannot
//     appear in the file;
//   - once the deadline passes, a retry that finds the file full again
//     (an older load took the slot) without its line fails too, and the
//     load re-parks until the file's next fill without walking.
//
// Safety only turns on, the safe and unsafe paths fail alike on an absent
// line and a full file (an ActDelay miss never retries), and the reap
// the check runs is the one the retry would run.
func (c *Core) parked(e *entry, cycle int64) bool {
	if c.setFills(e.addr) != e.parkSetFills {
		return false
	}
	if e.parkUntil > cycle {
		return true
	}
	mshr := c.sys.hier.DMSHR(c.id)
	if mshr.InUse(cycle) < mshr.Cap() {
		return false
	}
	if _, ok := mshr.Lookup(e.addr, cycle); ok {
		return false
	}
	e.parkUntil = mshr.MinReady()
	return true
}

// attemptAccess runs one load's D-cache access attempt: store forwarding,
// then the policy decision, then the hierarchy walk with MSHR allocation.
func (c *Core) attemptAccess(e *entry, cycle int64) {
	// Store-to-load forwarding. The issue gate guarantees every older store
	// address is known, so the search is exact; it runs once, at the first
	// attempt (see entry.fwd). Not at issue: an older store can retire in
	// the cycle the load issues, and then it no longer forwards.
	if !e.fwdKnown {
		e.fwdKnown = true
		e.fwd = c.forwardingStore(e)
	}
	if st := e.fwd; st != nil {
		if st.srcTag[1] != -1 {
			return // store data not produced yet; retry next cycle
		}
		e.destVal = st.srcVal[1]
		e.fwd = nil // the store may retire from now on
		e.forwarded = true
		e.level = cache.LevelL1
		e.mstate = memWalking
		e.memReady = cycle + 1
		return
	}

	if c.safe(e, c.policy.Shadow) {
		c.startWalk(e, cycle, true)
		return
	}
	l1hit := c.sys.hier.L1DHit(c.id, e.addr)
	// Schemes with a private speculative buffer (MuonTrap filter) serve
	// speculative hits from it before consulting the shared hierarchy.
	if c.policy.Filter.Sets > 0 && c.filter.Touch(e.addr) {
		e.invisible = true
		e.wasL1Hit = true // filter data needs no later install
		e.level = cache.LevelL1
		e.mstate = memWalking
		e.memReady = cycle + int64(c.policy.Filter.Latency)
		return
	}
	switch c.policy.DecideLoad(l1hit) {
	case ActVisible:
		c.startWalk(e, cycle, true)
	case ActInvisible:
		e.invisible = true
		e.wasL1Hit = l1hit
		c.startWalk(e, cycle, false)
	case ActDelay:
		e.mstate = memDelayed
		c.stats.LoadsDelayed++
	}
}

// forwardingStore returns the youngest older store to the same word, if any.
func (c *Core) forwardingStore(e *entry) *entry {
	var found *entry
	for _, o := range c.memOrder {
		if o.seq >= e.seq {
			break
		}
		if o.isStore() && o.addrKnown && mem.WordAddr(o.addr) == mem.WordAddr(e.addr) {
			found = o
		}
	}
	return found
}

// startWalk issues the hierarchy access for a load, allocating an MSHR for
// L1 misses. A full MSHR file leaves the load in memRetry — the structural
// delay the GDMSHR gadget induces on the victim — and parks it (see
// parked) until the file's next fill or until a line is installed in the
// load's L1D set or filter set, whichever comes first. Without such a
// fill the line cannot appear in the L1D or the filter (invalidations
// only remove lines). The L1D set matters: retiring an older store to
// the load's line installs it without an MSHR. So does the filter set:
// an invisible load of the same line whose fill was reaped when this load
// parked writes the line into the filter at its writeback. The file's
// next fill is its minimum ready cycle after the reap InUse runs.
func (c *Core) startWalk(e *entry, cycle int64, visible bool) {
	h := c.sys.hier
	if h.L1DHit(c.id, e.addr) {
		resp := h.AccessData(c.id, e.addr, cache.KindDataRead, visible, cycle)
		e.level = resp.Level
		e.mstate = memWalking
		e.memReady = resp.Ready
		return
	}
	mshr := h.DMSHR(c.id)
	if ready, ok := mshr.Lookup(e.addr, cycle); ok {
		// Coalesce onto the outstanding miss. A visible requester still
		// walks the hierarchy so fills and the C(E) log happen (the fill
		// the invisible originator suppressed must not be lost).
		if visible {
			resp := h.AccessData(c.id, e.addr, cache.KindDataRead, true, cycle)
			if resp.Ready > ready {
				ready = resp.Ready
			}
		}
		min := cycle + int64(h.Config().L1D.Latency)
		if ready < min {
			ready = min
		}
		e.level = cache.LevelLLC
		e.mstate = memWalking
		e.memReady = ready
		return
	}
	if mshr.InUse(cycle) >= mshr.Cap() {
		e.mstate = memRetry
		e.parkUntil = mshr.MinReady()
		e.parkSetFills = c.setFills(e.addr)
		c.stats.MSHRRetries++
		return
	}
	resp := h.AccessData(c.id, e.addr, cache.KindDataRead, visible, cycle)
	mshr.Allocate(e.addr, resp.Ready, cycle)
	e.level = resp.Level
	e.mstate = memWalking
	e.memReady = resp.Ready
}

// finishLoad captures the data and hands the load to the CDB.
func (c *Core) finishLoad(e *entry, cycle int64) {
	if !e.forwarded {
		e.destVal = c.sys.mem.Read64(e.addr)
	}
	if e.invisible {
		c.stats.LoadsInvisible++
	}
	e.mstate = memDone
	e.execDoneAt = cycle
	c.executing = append(c.executing, e)
}

// exposeLoad performs the deferred visible effect of an invisibly-completed
// load once it is safe: InvisiSpec/SafeSpec expose the access (fills and
// C(E) entry happen now), MuonTrap installs the filter line, Delay-on-Miss
// applies the deferred L1 replacement touch.
func (c *Core) exposeLoad(e *entry, cycle int64) {
	e.exposed = true
	switch {
	case c.policy.ExposeOnSafe:
		c.sys.hier.AccessData(c.id, e.addr, cache.KindDataRead, true, cycle)
		c.stats.Exposes++
	case c.policy.TouchOnSafe && e.wasL1Hit:
		c.sys.hier.TouchL1D(c.id, e.addr)
	}
}
