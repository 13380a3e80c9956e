package cache

import (
	"fmt"
	"reflect"
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

// requireSameCache fails unless got and want agree on every set's lines
// and on all other state: replacement arrays, LRU clocks, fill counts,
// dirty-set list, event counters and the state of the shared Rand.
func requireSameCache(t *testing.T, got, want *Cache, when string) {
	t.Helper()
	for s := 0; s < want.Sets(); s++ {
		if g, w := got.LinesInSet(s), want.LinesInSet(s); !slices.Equal(g, w) {
			t.Fatalf("%s: set %d holds %#x, fresh cache holds %#x", when, s, g, w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cache state\n%+v\nfresh cache\n%+v", when, *got, *want)
	}
}

// TestResetMatchesFreshCache pins the Reset contract for every replacement
// policy, with and without replacement noise: after a random sequence of
// fills, touches, lookups and invalidations, a reset cache is
// indistinguishable from a freshly built one, and stays so while both
// replay one more random sequence. The shared Rand is reseeded after
// Reset, as Hierarchy.Reset does.
func TestResetMatchesFreshCache(t *testing.T) {
	const sets, ways, seed = 16, 4, 7
	for _, k := range policies {
		for _, noise := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noise=%v", k, noise), func(t *testing.T) {
				build := func() (*Cache, *Rand) {
					rng := NewRand(seed)
					c := NewCache("t", sets, ways, 1, k, rng)
					if noise {
						c.AddReplacementNoise(30)
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
