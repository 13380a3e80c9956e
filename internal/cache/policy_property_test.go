package cache

import (
	"fmt"
	"slices"
	"testing"
)

// qlruMaxAge is the policy's 2-bit age domain ceiling.
const qlruMaxAge = 3

// checkAges asserts the QLRU state never leaves its 2-bit domain.
func checkAges(t *testing.T, c *Cache, when string) {
	t.Helper()
	for w, a := range c.age {
		if a > qlruMaxAge {
			t.Fatalf("%s: way %d age %d outside the 2-bit domain", when, w, a)
		}
	}
}

// leftmostMax returns the leftmost way of maximal age — the way the R0
// eviction rule with U0 aging must select in a full set: uniform
// saturating increments preserve the age order, so the first way to reach
// age 3 is the leftmost one that started maximal.
func leftmostMax(ages []uint8) int {
	return slices.Index(ages, slices.Max(ages))
}

// TestQLRUPropertyRandomAccess drives a one-set QLRU_H11_M1_R0_U0 cache
// with long pseudo-random fill/invalidate sequences and asserts, after
// every operation:
//
//   - ages stay within the 2-bit domain (the hardware has no age 4),
//   - insertions obey M1 (age 1) and hits obey H11 (promote to 0 or 1),
//   - fills take empty ways leftmost-first,
//   - a fill into a full set replaces the leftmost way of maximal age, so
//     a just-touched way — whose age an immediately preceding hit forced
//     to 0 or 1 — is never evicted while any way holds a strictly greater
//     age. (When every way is age-tied, U0 ages them to 3 in lockstep and
//     R0's leftmost tie-break applies; that tie-break, not recency, is the
//     only way a just-hit way can ever be the victim, and it is exactly
//     the determinism the §4.2.2 receiver decodes.)
func TestQLRUPropertyRandomAccess(t *testing.T) {
	for _, ways := range []int{4, 16} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("ways=%d/seed=%d", ways, seed), func(t *testing.T) {
				rng := NewRand(seed*0x9e37 + uint64(ways))
				c := NewCache("t", 1, ways, 1, PolicyQLRU, nil)
				lastHit := -1 // way touched by the most recent hit

				// 2*ways distinct lines: misses and hits stay interleaved.
				lines := 2 * ways
				for step := 0; step < 4000; step++ {
					switch op := rng.Intn(10); {
					case op == 0 && step > 0:
						// Occasional back-invalidation of a random way.
						w := rng.Intn(ways)
						if c.tags[w] != noLine {
							c.Invalidate(c.tags[w])
							if lastHit == w {
								lastHit = -1
							}
							checkAges(t, c, "after Invalidate")
						}
					default:
						addr := line(rng.Intn(lines))
						if _, w := c.find(addr); w >= 0 {
							c.Fill(addr)
							if a := c.age[w]; a > 1 {
								t.Fatalf("H11 violated: hit way %d left age %d", w, a)
							}
							lastHit = w
							checkAges(t, c, "after hit")
							continue
						}
						agesBefore := slices.Clone(c.age)
						empty := slices.Index(c.tags, noLine)
						c.Fill(addr)
						checkAges(t, c, "after fill")
						_, w := c.find(addr)
						if empty >= 0 {
							if w != empty {
								t.Fatalf("fill into a non-full set chose way %d, want leftmost empty %d", w, empty)
							}
						} else {
							want := leftmostMax(agesBefore)
							if w != want {
								t.Fatalf("fill replaced way %d (age %d), want leftmost maximal way %d (age %d); ages %v",
									w, agesBefore[w], want, agesBefore[want], agesBefore)
							}
							// The just-touched-way guarantee: only an
							// all-maximal tie may evict the last hit way.
							if w == lastHit {
								for ow, a := range agesBefore {
									if a > agesBefore[w] {
										t.Fatalf("just-hit way %d evicted while way %d is older (%d > %d)",
											w, ow, a, agesBefore[w])
									}
								}
							}
						}
						if a := c.age[w]; a != 1 {
							t.Fatalf("M1 violated: fill of way %d set age %d, want 1", w, a)
						}
						if lastHit == w {
							lastHit = -1
						}
					}
				}
			})
		}
	}
}

// TestQLRUJustTouchedSurvivesPressure is the receiver's working
// assumption in miniature: prime a full set, hit one way, then stream
// fills through the set — the hit way (age 0) must survive every
// eviction round until aging catches it up with the churned ways, which
// takes more rounds than the receiver's probe needs.
func TestQLRUJustTouchedSurvivesPressure(t *testing.T) {
	const ways = 16
	c := fullSet(PolicyQLRU, ways)
	const hot = 5
	c.Touch(line(hot)) // age 0; every other way is age 1
	c.Fill(line(ways))
	if !c.Contains(line(hot)) {
		t.Fatalf("first eviction after the hit chose the just-touched way %d", hot)
	}
	// One more round: the hot way is still the youngest.
	c.Fill(line(ways + 1))
	if !c.Contains(line(hot)) {
		t.Fatalf("second eviction chose the just-touched way %d; ages %v", hot, c.age)
	}
}
