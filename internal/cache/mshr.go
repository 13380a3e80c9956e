package cache

import (
	"math"

	"specinterference/internal/mem"
)

// MSHRFile models a file of miss-status holding registers. Each entry
// tracks one outstanding cache-line miss; same-line misses coalesce into
// the existing entry. Entries free when their fill completes. A full file
// blocks new misses from issuing — the structural hazard the GDMSHR
// interference gadget (§3.2.2) exhausts.
//
// Allocation is in request order with no reservation for older
// instructions, matching the paper's observation that invisible-speculation
// proposals "use the standard policy of allocating an MSHR to a missing
// load based on issue order".
type MSHRFile struct {
	cap     int
	entries []mshrEntry
	// minReady is the earliest ready cycle among entries (math.MaxInt64
	// when empty): before it, no fill has completed and reap has nothing
	// to drop, so a load retrying on a full file costs no scan.
	minReady int64
}

type mshrEntry struct {
	line  int64
	ready int64
}

// NewMSHRFile returns a file with capacity entries.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity < 1 {
		panic("cache: MSHR capacity must be >= 1")
	}
	return &MSHRFile{cap: capacity, minReady: math.MaxInt64}
}

// Cap returns the file capacity.
func (f *MSHRFile) Cap() int { return f.cap }

// reap drops entries whose fills completed at or before now.
func (f *MSHRFile) reap(now int64) {
	if f.minReady > now {
		return
	}
	kept := f.entries[:0]
	f.minReady = math.MaxInt64
	for _, e := range f.entries {
		if e.ready > now {
			kept = append(kept, e)
			f.minReady = min(f.minReady, e.ready)
		}
	}
	f.entries = kept
}

// InUse returns the number of live entries at cycle now.
func (f *MSHRFile) InUse(now int64) int {
	f.reap(now)
	return len(f.entries)
}

// Lookup reports whether an entry for addr's line is outstanding at cycle
// now, returning its fill-ready cycle (coalescing consumers wait for it).
func (f *MSHRFile) Lookup(addr, now int64) (ready int64, ok bool) {
	f.reap(now)
	line := mem.LineAddr(addr)
	for _, e := range f.entries {
		if e.line == line {
			return e.ready, true
		}
	}
	return 0, false
}

// Allocate claims an entry for addr's line, with the fill completing at
// ready. It returns false when the file is full (the requester must retry).
// Callers must Lookup first; allocating a duplicate line is a logic error
// and panics.
func (f *MSHRFile) Allocate(addr, ready, now int64) bool {
	f.reap(now)
	line := mem.LineAddr(addr)
	for _, e := range f.entries {
		if e.line == line {
			panic("cache: MSHR double allocation — Lookup before Allocate")
		}
	}
	if len(f.entries) >= f.cap {
		return false
	}
	f.entries = append(f.entries, mshrEntry{line: line, ready: ready})
	f.minReady = min(f.minReady, ready)
	return true
}

// MinReady returns the earliest fill-ready cycle among the outstanding
// entries, or math.MaxInt64 when the file is empty. Right after a call at
// cycle now that reaps (InUse, Lookup, Allocate), every outstanding fill
// is due after now, so this is NextReady(now) without the scan.
func (f *MSHRFile) MinReady() int64 { return f.minReady }

// NextReady returns the earliest cycle strictly after now at which an
// outstanding entry's fill completes (freeing its slot for retrying
// loads), or math.MaxInt64 when nothing is pending. It mutates nothing —
// idle-cycle fast-forward (uarch.System) polls it between ticks.
func (f *MSHRFile) NextReady(now int64) int64 {
	next := int64(math.MaxInt64)
	for _, e := range f.entries {
		if e.ready > now && e.ready < next {
			next = e.ready
		}
	}
	return next
}

// Clear empties the file, restoring the state NewMSHRFile returns (used
// when resetting a system between trials).
func (f *MSHRFile) Clear() {
	f.entries = f.entries[:0]
	f.minReady = math.MaxInt64
}
