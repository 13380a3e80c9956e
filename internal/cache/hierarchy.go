package cache

import (
	"fmt"

	"specinterference/internal/mem"
)

// Level identifies where in the hierarchy an access was served.
type Level int

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMem:
		return "Mem"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// AccessKind classifies a memory access.
type AccessKind int

// Access kinds.
const (
	KindDataRead AccessKind = iota
	KindDataWrite
	KindInstFetch
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case KindDataRead:
		return "read"
	case KindDataWrite:
		return "write"
	case KindInstFetch:
		return "fetch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// VisibleAccess is one entry of the visible shared-cache access log: the
// C(E) abstraction of §5.1. The attacker model sees the *sequence* of
// visible LLC accesses without timing, so equality of logs is compared on
// (Core, Line, Kind) order; Cycle is retained for diagnostics only.
type VisibleAccess struct {
	Core  int
	Line  int64
	Kind  AccessKind
	Cycle int64
	// Hit reports whether the LLC held the line (diagnostics).
	Hit bool
}

// Geometry describes one cache level.
type Geometry struct {
	Sets    int
	Ways    int
	Latency int
}

// Config describes a hierarchy.
type Config struct {
	// Cores is the number of cores (each gets private L1I/L1D and, when
	// configured, a private L2).
	Cores int
	L1I   Geometry
	L1D   Geometry
	// L2 is optional: Sets == 0 disables the level.
	L2 Geometry
	// LLC is the per-slice geometry of the shared last-level cache.
	LLC Geometry
	// LLCSlices is the number of LLC slices (power of two).
	LLCSlices int
	// L1Policy is the replacement policy of private levels.
	L1Policy PolicyKind
	// LLCPolicy is the replacement policy of the shared LLC.
	LLCPolicy PolicyKind
	// MemLatency is the DRAM access latency in cycles.
	MemLatency int
	// MemJitter, when positive, adds a uniform [0, MemJitter] pseudo-random
	// extra latency to each DRAM access (used by the Figure 7 histogram
	// runs; zero for deterministic tests).
	MemJitter int
	// DMSHRs is the number of L1D miss-status holding registers per core.
	DMSHRs int
	// Seed seeds the deterministic RNG (random replacement, jitter).
	Seed uint64
	// LLCReplacementNoisePct, when positive, makes each LLC victim
	// selection deviate to a random way with the given percent
	// probability. It models the paper's observation (§4.2.2) that the
	// real machine's LLC only approximately follows QLRU (adaptive sets),
	// which is the D-Cache receiver's natural error source.
	LLCReplacementNoisePct int
}

// DefaultConfig returns a hierarchy shaped like a scaled-down Kaby Lake:
// 32KB 8-way L1s, 256KB 8-way private L2, 2MB-per-slice 16-way shared LLC
// over 4 slices, 10 L1D MSHRs.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:      cores,
		L1I:        Geometry{Sets: 64, Ways: 8, Latency: 1},
		L1D:        Geometry{Sets: 64, Ways: 8, Latency: 4},
		L2:         Geometry{Sets: 512, Ways: 8, Latency: 12},
		LLC:        Geometry{Sets: 2048, Ways: 16, Latency: 40},
		LLCSlices:  4,
		L1Policy:   PolicyLRU,
		LLCPolicy:  PolicyQLRU,
		MemLatency: 150,
		DMSHRs:     10,
		Seed:       1,
	}
}

// EvictionSet returns n distinct line addresses that map to the same LLC
// set and slice as target under c, excluding target's own line and every
// line in avoid. Candidates are scanned upward from startHint (line-aligned).
// This is the simulator analog of the eviction-set construction the PoCs
// borrow from Liu et al. (§4.1): the attacker knows the geometry.
func (c Config) EvictionSet(target int64, n int, startHint int64, avoid []int64) []int64 {
	// The exclusion check is a linear scan over the (tiny) avoid list
	// rather than a per-call map: this runs in trial setup for every cell
	// of the campaign matrix, and the map allocation dominated its cost.
	excluded := func(cand int64) bool {
		if cand == mem.LineAddr(target) {
			return true
		}
		for _, a := range avoid {
			if cand == mem.LineAddr(a) {
				return true
			}
		}
		return false
	}
	wantSet := mem.SetIndex(target, c.LLC.Sets)
	wantSlice := mem.SliceIndex(target, c.LLCSlices)
	var out []int64
	for cand := mem.LineAddr(startHint); len(out) < n; cand += mem.LineBytes {
		if mem.SetIndex(cand, c.LLC.Sets) == wantSet &&
			mem.SliceIndex(cand, c.LLCSlices) == wantSlice &&
			!excluded(cand) {
			out = append(out, cand)
		}
	}
	return out
}

// Response reports where an access was served and when its data is ready.
type Response struct {
	Level Level
	// Ready is the cycle at which the data reaches the core.
	Ready int64
}

// Hierarchy is the full memory-side system: per-core private caches over a
// shared, sliced, inclusive LLC over flat DRAM.
type Hierarchy struct {
	cfg  Config
	rng  *Rand
	l1i  []*Cache
	l1d  []*Cache
	l2   []*Cache
	mshr []*MSHRFile
	llc  []*Cache

	logOn bool
	log   []VisibleAccess
}

// NewHierarchy builds a hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	if cfg.Cores < 1 {
		panic("cache: need at least one core")
	}
	if cfg.LLCSlices < 1 {
		panic("cache: need at least one LLC slice")
	}
	h := &Hierarchy{cfg: cfg, rng: NewRand(cfg.Seed), logOn: true}
	for c := 0; c < cfg.Cores; c++ {
		h.l1i = append(h.l1i, NewCache(fmt.Sprintf("c%d.l1i", c),
			cfg.L1I.Sets, cfg.L1I.Ways, cfg.L1I.Latency, cfg.L1Policy, h.rng))
		h.l1d = append(h.l1d, NewCache(fmt.Sprintf("c%d.l1d", c),
			cfg.L1D.Sets, cfg.L1D.Ways, cfg.L1D.Latency, cfg.L1Policy, h.rng))
		if cfg.L2.Sets > 0 {
			h.l2 = append(h.l2, NewCache(fmt.Sprintf("c%d.l2", c),
				cfg.L2.Sets, cfg.L2.Ways, cfg.L2.Latency, cfg.L1Policy, h.rng))
		}
		h.mshr = append(h.mshr, NewMSHRFile(cfg.DMSHRs))
	}
	for s := 0; s < cfg.LLCSlices; s++ {
		c := NewCache(fmt.Sprintf("llc%d", s),
			cfg.LLC.Sets, cfg.LLC.Ways, cfg.LLC.Latency, cfg.LLCPolicy, h.rng)
		if cfg.LLCReplacementNoisePct > 0 {
			c.AddReplacementNoise(cfg.LLCReplacementNoisePct)
		}
		h.llc = append(h.llc, c)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// HasL2 reports whether a private L2 level exists.
func (h *Hierarchy) HasL2() bool { return len(h.l2) > 0 }

// DMSHR returns core's L1D miss-status holding register file.
func (h *Hierarchy) DMSHR(core int) *MSHRFile { return h.mshr[core] }

// LLCSlice returns the slice cache that addr maps to (receiver
// introspection and tests).
func (h *Hierarchy) LLCSlice(addr int64) *Cache {
	return h.llc[mem.SliceIndex(addr, h.cfg.LLCSlices)]
}

// L1D returns core's L1 data cache.
func (h *Hierarchy) L1D(core int) *Cache { return h.l1d[core] }

// L1I returns core's L1 instruction cache.
func (h *Hierarchy) L1I(core int) *Cache { return h.l1i[core] }

// L2 returns core's private L2 or nil.
func (h *Hierarchy) L2(core int) *Cache {
	if len(h.l2) == 0 {
		return nil
	}
	return h.l2[core]
}

// SetLogging toggles the visible-access log.
func (h *Hierarchy) SetLogging(on bool) { h.logOn = on }

// Log returns the visible LLC access log (C(E), §5.1).
func (h *Hierarchy) Log() []VisibleAccess { return h.log }

// ResetLog clears the visible-access log, retaining its capacity.
func (h *Hierarchy) ResetLog() { h.log = h.log[:0] }

// Reset restores the hierarchy to the state NewHierarchy would return for
// the same configuration with Seed set to seed, reusing every cache array
// and the log's capacity. It is the memory-side half of uarch.System.Reset.
func (h *Hierarchy) Reset(seed uint64) {
	h.cfg.Seed = seed
	h.rng.Reseed(seed)
	for _, c := range h.l1i {
		c.Reset()
	}
	for _, c := range h.l1d {
		c.Reset()
	}
	for _, c := range h.l2 {
		c.Reset()
	}
	for _, f := range h.mshr {
		f.Clear()
	}
	for _, c := range h.llc {
		c.Reset()
	}
	h.logOn = true
	h.log = h.log[:0]
}

func (h *Hierarchy) record(core int, addr int64, kind AccessKind, cycle int64, hit bool) {
	if h.logOn {
		h.log = append(h.log, VisibleAccess{
			Core: core, Line: mem.LineAddr(addr), Kind: kind, Cycle: cycle, Hit: hit,
		})
	}
}

func (h *Hierarchy) memLatency() int64 {
	lat := int64(h.cfg.MemLatency)
	if h.cfg.MemJitter > 0 {
		lat += int64(h.rng.Intn(h.cfg.MemJitter + 1))
	}
	return lat
}

// fillLLC installs a line into the LLC; inclusive back-invalidation evicts
// any private copies of the victim line in every core.
func (h *Hierarchy) fillLLC(addr int64) {
	slice := h.LLCSlice(addr)
	evicted, has := slice.Fill(addr)
	if !has {
		return
	}
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1i[c].Invalidate(evicted)
		h.l1d[c].Invalidate(evicted)
		if h.HasL2() {
			h.l2[c].Invalidate(evicted)
		}
	}
}

// access walks the hierarchy starting at the given private L1 for core.
// When visible is false, no cache state anywhere changes and nothing is
// logged (the data still flows to the core: an "invisible" request in the
// sense of InvisiSpec/SafeSpec).
//
//speclint:allocfree
func (h *Hierarchy) access(core int, l1 *Cache, addr int64, kind AccessKind, visible bool, cycle int64) Response {
	t := cycle + int64(l1.Latency())
	if visible {
		if l1.Lookup(addr) {
			l1.Touch(addr)
			return Response{Level: LevelL1, Ready: t}
		}
	} else if l1.Contains(addr) {
		return Response{Level: LevelL1, Ready: t}
	}

	if h.HasL2() {
		l2 := h.l2[core]
		t += int64(l2.Latency())
		if visible {
			if l2.Lookup(addr) {
				l2.Touch(addr)
				l1.Fill(addr)
				return Response{Level: LevelL2, Ready: t}
			}
		} else if l2.Contains(addr) {
			return Response{Level: LevelL2, Ready: t}
		}
	}

	slice := h.LLCSlice(addr)
	t += int64(slice.Latency())
	if visible {
		hit := slice.Lookup(addr)
		h.record(core, addr, kind, cycle, hit)
		if hit {
			slice.Touch(addr)
			if h.HasL2() {
				h.l2[core].Fill(addr)
			}
			l1.Fill(addr)
			return Response{Level: LevelLLC, Ready: t}
		}
		t += h.memLatency()
		h.fillLLC(addr)
		if h.HasL2() {
			h.l2[core].Fill(addr)
		}
		l1.Fill(addr)
		return Response{Level: LevelMem, Ready: t}
	}
	if slice.Contains(addr) {
		return Response{Level: LevelLLC, Ready: t}
	}
	t += h.memLatency()
	return Response{Level: LevelMem, Ready: t}
}

// AccessData performs a data access for core at cycle. Invisible accesses
// change no cache state (they model protected speculative loads).
//
//speclint:allocfree
func (h *Hierarchy) AccessData(core int, addr int64, kind AccessKind, visible bool, cycle int64) Response {
	return h.access(core, h.l1d[core], addr, kind, visible, cycle)
}

// AccessInst performs an instruction fetch for core at cycle.
//
//speclint:allocfree
func (h *Hierarchy) AccessInst(core int, addr int64, visible bool, cycle int64) Response {
	return h.access(core, h.l1i[core], addr, KindInstFetch, visible, cycle)
}

// L1DHit reports whether addr would hit core's L1D, with no side effects.
// Delay-on-Miss consults this to decide between "execute invisibly" and
// "delay" (§2.2).
func (h *Hierarchy) L1DHit(core int, addr int64) bool {
	return h.l1d[core].Contains(addr)
}

// TouchL1D applies the deferred replacement update of a Delay-on-Miss
// speculative hit once the load becomes safe.
func (h *Hierarchy) TouchL1D(core int, addr int64) { h.l1d[core].Touch(addr) }

// Flush evicts the line containing addr from every cache in the system
// (clflush semantics: coherence removes all copies).
func (h *Hierarchy) Flush(addr int64) {
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1i[c].Invalidate(addr)
		h.l1d[c].Invalidate(addr)
		if h.HasL2() {
			h.l2[c].Invalidate(addr)
		}
	}
	h.LLCSlice(addr).Invalidate(addr)
}

// Warm installs the line containing addr into the hierarchy down to the
// given level for core, without logging or timing: an experiment-setup
// helper used to prime cache contents before a measured run.
//
//	Warm(c, a, LevelL1)  → LLC, L2 and L1D hold the line
//	Warm(c, a, LevelLLC) → only the LLC holds the line
func (h *Hierarchy) Warm(core int, addr int64, level Level) {
	wasOn := h.logOn
	h.logOn = false
	defer func() { h.logOn = wasOn }()
	h.fillLLC(addr)
	if level == LevelLLC {
		return
	}
	if h.HasL2() {
		h.l2[core].Fill(addr)
	}
	if level == LevelL2 {
		return
	}
	h.l1d[core].Fill(addr)
}

// WarmInst is Warm for the instruction side.
func (h *Hierarchy) WarmInst(core int, addr int64, level Level) {
	wasOn := h.logOn
	h.logOn = false
	defer func() { h.logOn = wasOn }()
	h.fillLLC(addr)
	if level == LevelLLC {
		return
	}
	if h.HasL2() {
		h.l2[core].Fill(addr)
	}
	if level == LevelL2 {
		return
	}
	h.l1i[core].Fill(addr)
}
