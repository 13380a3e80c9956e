package cache

import (
	"fmt"

	"specinterference/internal/mem"
)

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	Invalidates uint64
}

// noLine is the tag of an invalid way. Line addresses are multiples of
// mem.LineBytes, so no line has it.
const noLine = -1

// Cache is one set-associative cache level (or one LLC slice). It tracks
// only tags and replacement state; data always comes from the flat memory,
// which is kept architecturally current (stores write through at retire).
// Way w of set s is index s*ways+w of each per-way array below.
type Cache struct {
	name   string
	sets   int
	ways   int
	lat    int
	policy PolicyKind
	tags   []int64  // line address per way, or noLine
	age    []uint8  // QLRU ages or SRRIP RRPVs per way
	stamp  []uint64 // LRU use stamp per way
	clock  []uint64 // LRU use clock per set
	rng    *Rand    // random victims and replacement noise draw from it
	noise  int      // percent of victim choices that go to a random way
	stats  Stats
	// fills[s] counts the lines Fill has installed in set s since
	// construction or the last Reset, and dirty lists the sets whose count
	// is non-zero. A set not on the list has no valid way and fresh
	// replacement state, so Reset restores only the listed sets. Only Fill
	// can break that: Touch, Invalidate and InvalidateAll act on lines
	// already present.
	fills []uint64
	dirty []int
}

// NewCache builds a cache of sets×ways lines under policy, allocating only
// the arrays that policy reads. sets must be a power of two; lat is the hit
// latency in cycles. rng is required for PolicyRandom and for
// AddReplacementNoise.
func NewCache(name string, sets, ways, lat int, policy PolicyKind, rng *Rand) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets %d not a positive power of two", name, sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways %d must be positive", name, ways))
	}
	if lat < 1 {
		panic(fmt.Sprintf("cache %s: latency %d must be >= 1", name, lat))
	}
	c := &Cache{name: name, sets: sets, ways: ways, lat: lat, policy: policy, rng: rng,
		tags: make([]int64, sets*ways), fills: make([]uint64, sets), dirty: make([]int, 0, sets)}
	for i := range c.tags {
		c.tags[i] = noLine
	}
	switch policy {
	case PolicyLRU:
		c.stamp = make([]uint64, sets*ways)
		c.clock = make([]uint64, sets)
	case PolicySRRIP, PolicyQLRU:
		c.age = make([]uint8, sets*ways)
	case PolicyRandom:
		if rng == nil {
			panic(fmt.Sprintf("cache %s: PolicyRandom requires a Rand", name))
		}
	default:
		panic(fmt.Sprintf("cache %s: unknown policy %d", name, int(policy)))
	}
	return c
}

// AddReplacementNoise makes victim selection deviate to a uniformly random
// way pct percent of the time, drawing from the cache's Rand. It models
// adaptive or imperfectly reverse-engineered replacement behaviour
// (§4.2.2's footnote: the target LLC only approximately follows
// QLRU_H11_M1_R0_U0). Empty-way preference is kept: only the choice among
// occupied ways is perturbed.
func (c *Cache) AddReplacementNoise(pct int) {
	if pct <= 0 || pct > 100 {
		panic("cache: replacement noise percent out of range")
	}
	if c.rng == nil {
		panic(fmt.Sprintf("cache %s: replacement noise requires a Rand", c.name))
	}
	c.noise = pct
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() int { return c.lat }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetOf returns the set index for addr.
func (c *Cache) SetOf(addr int64) int { return mem.SetIndex(addr, c.sets) }

// SetFills returns how many lines Fill has installed in addr's set since
// construction or the last Reset. A line absent from the cache can appear
// only through a fill its set counts.
func (c *Cache) SetFills(addr int64) uint64 { return c.fills[c.SetOf(addr)] }

// find returns addr's set and the index of its way in the flat arrays,
// or -1 when the line is absent.
func (c *Cache) find(addr int64) (set, i int) {
	line := mem.LineAddr(addr)
	set = c.SetOf(addr)
	base := set * c.ways
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			return set, base + w
		}
	}
	return set, -1
}

// Contains reports whether the line holding addr is present, without
// touching replacement state or statistics.
func (c *Cache) Contains(addr int64) bool {
	_, i := c.find(addr)
	return i >= 0
}

// Lookup probes for addr, counting a hit or miss but NOT updating
// replacement state. Callers that want the replacement side effect of a hit
// must call Touch (this split is what lets Delay-on-Miss defer replacement
// updates for speculative hits, §2.2).
func (c *Cache) Lookup(addr int64) bool {
	hit := c.Contains(addr)
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return hit
}

// Touch applies the replacement hit-update for addr if present, returning
// whether it was. This is the deferred part of a speculative hit.
func (c *Cache) Touch(addr int64) bool {
	set, i := c.find(addr)
	if i < 0 {
		return false
	}
	c.hit(set, i)
	return true
}

// Fill inserts the line containing addr, evicting if needed. It returns the
// evicted line address and whether an eviction of a valid line happened.
// Filling a line that is already present degenerates to Touch.
func (c *Cache) Fill(addr int64) (evicted int64, hasEvict bool) {
	set, i := c.find(addr)
	if i >= 0 {
		c.hit(set, i)
		return 0, false
	}
	if c.fills[set] == 0 {
		c.dirty = append(c.dirty, set)
	}
	i = set*c.ways + c.victim(set)
	if c.tags[i] != noLine {
		evicted = c.tags[i]
		hasEvict = true
		c.stats.Evictions++
	}
	c.tags[i] = mem.LineAddr(addr)
	c.fill(set, i)
	c.fills[set]++
	c.stats.Fills++
	return evicted, hasEvict
}

// Invalidate removes the line containing addr, reporting whether it was
// present.
func (c *Cache) Invalidate(addr int64) bool {
	_, i := c.find(addr)
	if i < 0 {
		return false
	}
	c.clearWay(i)
	c.stats.Invalidates++
	return true
}

// InvalidateAll empties the cache (used by MuonTrap's filter-cache flush on
// squash).
func (c *Cache) InvalidateAll() {
	for i, line := range c.tags {
		if line != noLine {
			c.clearWay(i)
			c.stats.Invalidates++
		}
	}
}

// Reset restores the cache to its just-constructed state — every way
// invalid, replacement state fresh, statistics zeroed — reusing the
// existing arrays. It visits only the sets filled since the last reset,
// so its cost scales with the footprint of the work in between, not with
// the cache's size. Replacement noise stays on (its shared Rand is
// reseeded by the hierarchy).
func (c *Cache) Reset() {
	for _, s := range c.dirty {
		for i := s * c.ways; i < (s+1)*c.ways; i++ {
			c.clearWay(i)
		}
		if c.policy == PolicyLRU {
			c.clock[s] = 0
		}
		c.fills[s] = 0
	}
	c.dirty = c.dirty[:0]
	c.stats = Stats{}
}

// LinesInSet returns the valid line addresses currently in set, in way
// order (introspection for tests and receivers' documentation).
func (c *Cache) LinesInSet(set int) []int64 {
	var out []int64
	for _, line := range c.tags[set*c.ways : (set+1)*c.ways] {
		if line != noLine {
			out = append(out, line)
		}
	}
	return out
}
