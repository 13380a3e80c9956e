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

// Cache is one set-associative cache level (or one LLC slice). It tracks
// only tags and replacement state; data always comes from the flat memory,
// which is kept architecturally current (stores write through at retire).
type Cache struct {
	name   string
	sets   int
	ways   int
	lat    int
	policy PolicyKind
	state  []SetState
	lines  [][]int64 // line address per way, or -1 when invalid
	valid  [][]bool
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

// NewCache builds a cache. sets must be a power of two; lat is the hit
// latency in cycles. rng is required for PolicyRandom.
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
	c := &Cache{name: name, sets: sets, ways: ways, lat: lat, policy: policy}
	c.state = make([]SetState, sets)
	c.lines = make([][]int64, sets)
	c.valid = make([][]bool, sets)
	c.fills = make([]uint64, sets)
	c.dirty = make([]int, 0, sets)
	for s := 0; s < sets; s++ {
		c.state[s] = NewSetState(policy, ways, rng)
		c.lines[s] = make([]int64, ways)
		c.valid[s] = make([]bool, ways)
		for w := range c.lines[s] {
			c.lines[s][w] = -1
		}
	}
	return c
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

func (c *Cache) find(addr int64) (set, way int, hit bool) {
	line := mem.LineAddr(addr)
	set = c.SetOf(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == line {
			return set, w, true
		}
	}
	return set, -1, false
}

// Contains reports whether the line holding addr is present, without
// touching replacement state or statistics.
func (c *Cache) Contains(addr int64) bool {
	_, _, hit := c.find(addr)
	return hit
}

// Lookup probes for addr, counting a hit or miss but NOT updating
// replacement state. Callers that want the replacement side effect of a hit
// must call Touch (this split is what lets Delay-on-Miss defer replacement
// updates for speculative hits, §2.2).
func (c *Cache) Lookup(addr int64) bool {
	_, _, hit := c.find(addr)
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
	set, way, hit := c.find(addr)
	if !hit {
		return false
	}
	c.state[set].OnHit(way)
	return true
}

// Fill inserts the line containing addr, evicting if needed. It returns the
// evicted line address and whether an eviction of a valid line happened.
// Filling a line that is already present degenerates to Touch.
func (c *Cache) Fill(addr int64) (evicted int64, hasEvict bool) {
	set, way, hit := c.find(addr)
	if hit {
		c.state[set].OnHit(way)
		return 0, false
	}
	if c.fills[set] == 0 {
		c.dirty = append(c.dirty, set)
	}
	way = c.state[set].Victim(c.valid[set])
	if c.valid[set][way] {
		evicted = c.lines[set][way]
		hasEvict = true
		c.stats.Evictions++
	}
	c.lines[set][way] = mem.LineAddr(addr)
	c.valid[set][way] = true
	c.state[set].OnFill(way)
	c.fills[set]++
	c.stats.Fills++
	return evicted, hasEvict
}

// Invalidate removes the line containing addr, reporting whether it was
// present.
func (c *Cache) Invalidate(addr int64) bool {
	set, way, hit := c.find(addr)
	if !hit {
		return false
	}
	c.valid[set][way] = false
	c.lines[set][way] = -1
	c.state[set].OnInvalidate(way)
	c.stats.Invalidates++
	return true
}

// InvalidateAll empties the cache (used by MuonTrap's filter-cache flush on
// squash).
func (c *Cache) InvalidateAll() {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			if c.valid[s][w] {
				c.valid[s][w] = false
				c.lines[s][w] = -1
				c.state[s].OnInvalidate(w)
				c.stats.Invalidates++
			}
		}
	}
}

// Reset restores the cache to its just-constructed state — every way
// invalid, replacement state fresh, statistics zeroed — reusing the
// existing arrays. It visits only the sets filled since the last reset,
// so its cost scales with the footprint of the work in between, not with
// the cache's size. Noise wrappers installed by AddReplacementNoise stay
// in place (their shared Rand is reseeded by the hierarchy).
func (c *Cache) Reset() {
	for _, s := range c.dirty {
		for w := 0; w < c.ways; w++ {
			c.lines[s][w] = -1
			c.valid[s][w] = false
		}
		c.state[s].Reset()
		c.fills[s] = 0
	}
	c.dirty = c.dirty[:0]
	c.stats = Stats{}
}

// LinesInSet returns the valid line addresses currently in set, in way
// order (introspection for tests and receivers' documentation).
func (c *Cache) LinesInSet(set int) []int64 {
	var out []int64
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] {
			out = append(out, c.lines[set][w])
		}
	}
	return out
}

// SetState exposes the replacement state of a set for white-box tests. It
// is read-only: mutating it behind the cache's back would bypass the
// bookkeeping Reset relies on.
func (c *Cache) SetState(set int) SetState { return c.state[set] }

// DumpSet renders a set for diagnostics.
func (c *Cache) DumpSet(set int) string {
	s := fmt.Sprintf("%s set %d:", c.name, set)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] {
			s += fmt.Sprintf(" [%d]=%#x", w, c.lines[set][w])
		} else {
			s += fmt.Sprintf(" [%d]=-", w)
		}
	}
	return s + " " + c.state[set].DebugString()
}
