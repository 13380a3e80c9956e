// Package cache implements the memory-side substrate of the simulator:
// parametric set-associative caches whose tags and replacement state live
// in flat per-cache arrays, under one of four replacement policies (LRU,
// SRRIP, random, and the QLRU_H11_M1_R0_U0 policy reverse-engineered from
// the paper's Kaby Lake target in §4.2.2), miss-status-holding-register
// files, per-core private levels, a shared sliced last-level cache with
// inclusive back-invalidation, a visible-access log implementing the C(E)
// abstraction of §5.1, and eviction-set construction for the attacker's
// receiver.
package cache

import (
	"fmt"
	"slices"
)

// PolicyKind selects a replacement policy.
type PolicyKind int

// Replacement policies. Every policy fills the leftmost empty way of a set
// before it evicts anything.
const (
	// PolicyLRU is true least-recently-used.
	PolicyLRU PolicyKind = iota
	// PolicySRRIP is 2-bit static re-reference interval prediction
	// (Jaleel et al.): insert at RRPV 2, promote to 0 on a hit, and evict
	// as QLRU does.
	PolicySRRIP
	// PolicyQLRU is QLRU_H11_M1_R0_U0, the quad-age LRU variant that the
	// paper identified (via nanoBench/CacheQuery) on the Kaby Lake LLC
	// sets it attacks (§4.2.2). Quoting the paper's sub-policies:
	//
	//   - M1 insertion: new lines enter with age 1.
	//   - H11 hit promotion: age 3 -> 1, age 2 -> 1, age 1 or 0 -> 0.
	//   - R0 eviction: insert into the leftmost empty way when the set is
	//     not full; otherwise evict the leftmost way whose age is 3.
	//   - U0 aging: when an eviction is needed and no way has age 3,
	//     increment every way's age (saturating at 3) until one does.
	//
	// The D-Cache PoC receiver (internal/core) decodes load-issue *order*
	// from exactly these rules.
	PolicyQLRU
	// PolicyRandom picks uniformly random victims (CleanupSpec-style
	// randomized replacement; the §6 mitigation discussion).
	PolicyRandom
)

// String implements fmt.Stringer.
func (k PolicyKind) String() string {
	switch k {
	case PolicyLRU:
		return "lru"
	case PolicySRRIP:
		return "srrip"
	case PolicyQLRU:
		return "qlru_h11_m1_r0_u0"
	case PolicyRandom:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// hit applies the replacement update for a hit on way index i of set.
func (c *Cache) hit(set, i int) {
	switch c.policy {
	case PolicyLRU:
		c.clock[set]++
		c.stamp[i] = c.clock[set]
	case PolicySRRIP:
		c.age[i] = 0
	case PolicyQLRU:
		c.age[i] /= 2 // H11: age 3 or 2 -> 1, age 1 or 0 -> 0
	}
}

// fill applies the replacement update for a line just installed at way
// index i of set.
func (c *Cache) fill(set, i int) {
	switch c.policy {
	case PolicyLRU:
		c.hit(set, i)
	case PolicySRRIP:
		c.age[i] = 2
	case PolicyQLRU: // M1
		c.age[i] = 1
	}
}

// victim returns the way of set that the next fill replaces: the leftmost
// empty way, else the policy's choice. Replacement noise then draws, after
// the policy has chosen and aged the set, and may pick a random way
// instead.
func (c *Cache) victim(set int) int {
	base := set * c.ways
	if w := slices.Index(c.tags[base:base+c.ways], noLine); w >= 0 {
		return w
	}
	v := 0
	switch c.policy {
	case PolicyLRU:
		stamp := c.stamp[base : base+c.ways]
		for w := 1; w < len(stamp); w++ {
			if stamp[w] < stamp[v] {
				v = w
			}
		}
	case PolicySRRIP, PolicyQLRU:
		// Evict the leftmost way of age 3, first ageing every way by the
		// same amount until one has it (U0).
		age := c.age[base : base+c.ways]
		lift := 3 - slices.Max(age)
		for w := range age {
			age[w] += lift
		}
		v = slices.Index(age, 3)
	case PolicyRandom:
		v = int(c.rng.Uint64() % uint64(c.ways))
	}
	if c.noise > 0 && c.rng.Intn(100) < c.noise {
		return c.rng.Intn(c.ways)
	}
	return v
}

// clearWay empties way index i and zeroes its replacement state.
func (c *Cache) clearWay(i int) {
	c.tags[i] = noLine
	switch c.policy {
	case PolicyLRU:
		c.stamp[i] = 0
	case PolicySRRIP, PolicyQLRU:
		c.age[i] = 0
	}
}

// Rand is a small deterministic xorshift64* generator so the simulator does
// not depend on math/rand ordering and is reproducible across runs.
type Rand struct{ state uint64 }

// NewRand seeds a generator; seed 0 is remapped to a fixed non-zero value.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Reseed restarts the stream as if the generator had been built with
// NewRand(seed), with the same zero-seed remapping.
func (r *Rand) Reseed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r.state = seed
}

// Uint64 returns the next pseudo-random value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("cache: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}
