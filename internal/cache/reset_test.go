package cache

import (
	"fmt"
	"slices"
	"testing"

	"specinterference/internal/mem"
)

// randomOps drives c through n pseudo-random operations. Each call picks a
// few hot sets, so successive calls dirty different sets, and cycles twice
// the associativity's worth of tags through them, so fills evict.
func randomOps(c *Cache, rng *Rand, n int) {
	hot := make([]int, 1+rng.Intn(c.Sets()/2))
	for i := range hot {
		hot[i] = rng.Intn(c.Sets())
	}
	for i := 0; i < n; i++ {
		set := hot[rng.Intn(len(hot))]
		tag := rng.Intn(2 * c.Ways())
		addr := int64(tag*c.Sets()+set) * mem.LineBytes
		switch op := rng.Intn(50); {
		case op < 20:
			c.Fill(addr)
		case op < 30:
			c.Touch(addr)
		case op < 40:
			c.Lookup(addr)
		case op < 49:
			c.Invalidate(addr)
		default:
			c.InvalidateAll()
		}
	}
}

// requireSameCache fails unless got and want agree on every set's lines,
// replacement state and fill count and on the event counters.
func requireSameCache(t *testing.T, got, want *Cache, when string) {
	t.Helper()
	for s := 0; s < want.Sets(); s++ {
		if g, w := got.LinesInSet(s), want.LinesInSet(s); !slices.Equal(g, w) {
			t.Fatalf("%s: set %d holds %#x, fresh cache holds %#x", when, s, g, w)
		}
		if g, w := got.SetState(s).DebugString(), want.SetState(s).DebugString(); g != w {
			t.Fatalf("%s: set %d replacement state %s, fresh cache %s", when, s, g, w)
		}
		addr := int64(s) * mem.LineBytes
		if g, w := got.SetFills(addr), want.SetFills(addr); g != w {
			t.Fatalf("%s: set %d counts %d fills, fresh cache %d", when, s, g, w)
		}
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("%s: stats %+v, fresh cache %+v", when, g, w)
	}
}

// TestResetMatchesFreshCache pins the Reset contract for every replacement
// policy, with and without replacement noise: after a random sequence of
// fills, touches, lookups and invalidations, a reset cache is
// indistinguishable from a freshly built one, and stays so while both
// replay one more random sequence. The replay catches hidden state that
// DebugString does not render, such as LRU's clock. The shared Rand is
// reseeded after Reset, as Hierarchy.Reset does.
func TestResetMatchesFreshCache(t *testing.T) {
	const sets, ways, seed = 16, 4, 7
	policies := []PolicyKind{PolicyLRU, PolicyTreePLRU, PolicyNRU, PolicySRRIP, PolicyQLRU, PolicyRandom}
	for _, k := range policies {
		for _, noise := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noise=%v", k, noise), func(t *testing.T) {
				build := func() (*Cache, *Rand) {
					rng := NewRand(seed)
					c := NewCache("t", sets, ways, 1, k, rng)
					if noise {
						c.AddReplacementNoise(30, rng)
					}
					return c, rng
				}
				used, usedRng := build()
				for round := uint64(1); round <= 5; round++ {
					randomOps(used, NewRand(round), 300)
					used.Reset()
					usedRng.Reseed(seed)
					fresh, _ := build()
					requireSameCache(t, used, fresh, fmt.Sprintf("round %d after Reset", round))
					randomOps(used, NewRand(100+round), 300)
					randomOps(fresh, NewRand(100+round), 300)
					requireSameCache(t, used, fresh, fmt.Sprintf("round %d after replay", round))
				}
			})
		}
	}
}
