package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"specinterference/internal/mem"
)

// policies lists every replacement policy.
var policies = []PolicyKind{PolicyLRU, PolicySRRIP, PolicyQLRU, PolicyRandom}

// line returns the address of line n; in a one-set cache every line maps
// to set 0.
func line(n int) int64 { return int64(n) * mem.LineBytes }

// fullSet returns a one-set cache under policy k whose ways hold lines 0,
// 1, ... in way order, each filled once.
func fullSet(k PolicyKind, ways int) *Cache {
	c := NewCache("t", 1, ways, 1, k, NewRand(42))
	for n := 0; n < ways; n++ {
		c.Fill(line(n))
	}
	return c
}

func TestPolicyKindString(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range policies {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
	if PolicyKind(99).String() != "policy(99)" {
		t.Error("unknown policy name")
	}
}

func TestLRUVictimOrder(t *testing.T) {
	c := fullSet(PolicyLRU, 4)
	// Filled 0..3 in order: the victim is way 0, the oldest.
	if v := c.victim(0); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
	// Touch way 0; the victim becomes way 1.
	c.Touch(line(0))
	if v := c.victim(0); v != 1 {
		t.Errorf("victim after hit = %d, want 1", v)
	}
}

func TestLRUPrefersEmptyWay(t *testing.T) {
	c := NewCache("t", 1, 4, 1, PolicyLRU, nil)
	c.Fill(line(0))
	if v := c.victim(0); v != 1 {
		t.Errorf("victim = %d, want first empty way 1", v)
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := fullSet(PolicyLRU, 2)
	c.Invalidate(line(1))
	if c.stamp[1] != 0 {
		t.Errorf("invalidated way keeps stamp %d, want 0", c.stamp[1])
	}
	// Refilled, way 1 is the newest: way 0 is the next victim.
	c.Fill(line(2))
	if c.tags[1] != line(2) {
		t.Fatalf("refill went to %#x, want the empty way 1", c.LinesInSet(0))
	}
	if v := c.victim(0); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
}

func TestSRRIPInsertAndPromote(t *testing.T) {
	c := fullSet(PolicySRRIP, 2)
	if !slices.Equal(c.age, []uint8{2, 2}) {
		t.Errorf("RRPVs after fills = %v, want [2 2]", c.age)
	}
	c.Touch(line(0)) // way 0 RRPV 0, way 1 RRPV 2
	// Aging: way 1 reaches 3 first.
	if v := c.victim(0); v != 1 {
		t.Errorf("victim = %d, want 1", v)
	}
	if !slices.Equal(c.age, []uint8{1, 3}) {
		t.Errorf("RRPVs after aging = %v, want [1 3]", c.age)
	}
}

func TestRandomVictimInRangeAndDeterministic(t *testing.T) {
	c1, c2 := fullSet(PolicyRandom, 8), fullSet(PolicyRandom, 8)
	for i := 0; i < 100; i++ {
		v1, v2 := c1.victim(0), c2.victim(0)
		if v1 != v2 {
			t.Fatal("random policy not reproducible with equal seeds")
		}
		if v1 < 0 || v1 >= 8 {
			t.Fatalf("victim %d out of range", v1)
		}
	}
}

// TestReplacementNoiseDrawsAfterPolicy pins when noise draws from the
// shared Rand: after the policy has chosen a victim (a random victim's own
// draw included) and aged the set, one Intn(100) and, when that deviates,
// one Intn(ways). The result baselines depend on this order.
func TestReplacementNoiseDrawsAfterPolicy(t *testing.T) {
	const ways = 8
	for _, k := range policies {
		c := fullSet(k, ways) // filling empty ways draws nothing
		c.AddReplacementNoise(100)
		want := NewRand(42)
		if k == PolicyRandom {
			want.Uint64()
		}
		want.Intn(100)
		if v, w := c.victim(0), want.Intn(ways); v != w {
			t.Errorf("%s: noisy victim = %d, want %d", k, v, w)
		}
		if c.age != nil && !slices.Contains(c.age, 3) {
			t.Errorf("%s: ages %v: the policy did not age the set before noise chose", k, c.age)
		}
	}
}

// --- QLRU_H11_M1_R0_U0: the paper's §4.2.2 policy ---

func TestQLRUInsertionAgeM1(t *testing.T) {
	c := NewCache("t", 1, 4, 1, PolicyQLRU, nil)
	c.Fill(line(0))
	c.Fill(line(1))
	c.Fill(line(2))
	if c.age[2] != 1 {
		t.Errorf("insert age = %d, want 1 (M1)", c.age[2])
	}
}

func TestQLRUHitPromotionH11(t *testing.T) {
	cases := []struct{ before, after uint8 }{{3, 1}, {2, 1}, {1, 0}, {0, 0}}
	for _, tc := range cases {
		c := fullSet(PolicyQLRU, 1)
		c.age[0] = tc.before
		c.Touch(line(0))
		if c.age[0] != tc.after {
			t.Errorf("hit on age %d -> %d, want %d (H11)", tc.before, c.age[0], tc.after)
		}
	}
}

func TestQLRUVictimR0LeftmostEmpty(t *testing.T) {
	c := fullSet(PolicyQLRU, 4)
	c.Invalidate(line(1))
	c.Invalidate(line(3))
	if v := c.victim(0); v != 1 {
		t.Errorf("victim = %d, want leftmost empty way 1 (R0)", v)
	}
}

func TestQLRUVictimU0Aging(t *testing.T) {
	c := fullSet(PolicyQLRU, 4)
	copy(c.age, []uint8{0, 1, 2, 1})
	// U0 increments all by 1 until a 3 exists: {1,2,3,2} -> way 2 evicted.
	if v := c.victim(0); v != 2 {
		t.Errorf("victim = %d, want 2", v)
	}
	if want := []uint8{1, 2, 3, 2}; !slices.Equal(c.age, want) {
		t.Errorf("ages = %v, want %v", c.age, want)
	}
}

func TestQLRUVictimLeftmostAge3(t *testing.T) {
	c := fullSet(PolicyQLRU, 4)
	copy(c.age, []uint8{2, 3, 3, 0})
	if v := c.victim(0); v != 1 {
		t.Errorf("victim = %d, want leftmost age-3 way 1", v)
	}
}

func TestQLRUInvalidate(t *testing.T) {
	c := fullSet(PolicyQLRU, 2)
	copy(c.age, []uint8{3, 3})
	c.Invalidate(line(0))
	if c.age[0] != 0 || c.tags[0] != noLine {
		t.Errorf("invalidated way holds tag %d age %d, want empty at age 0", c.tags[0], c.age[0])
	}
}

// TestQLRUFigure8StateEvolution walks the exact prime → victim → probe
// sequence of Figure 8 on a 16-way set and checks the paper's key claim:
// after the full sequence only one of {A, B} remains resident, and which
// one depends on the victim's access order.
func TestQLRUFigure8StateEvolution(t *testing.T) {
	const ways = 16
	run := func(victimOrder string) (aResident, bResident bool) {
		c := NewCache("llc", 1, ways, 1, PolicyQLRU, nil)
		// 15-line eviction sets EVS1 (EV0-EV14) and EVS2 (EV15-EV29).
		evs1 := make([]int64, 15)
		evs2 := make([]int64, 15)
		for i := range evs1 {
			evs1[i] = line(i + 1)
			evs2[i] = line(i + 16)
		}
		addrA, addrB := line(31), line(32)
		// Prime: access EVS1 many times (saturate ages at 0), then A.
		for round := 0; round < 4; round++ {
			for _, a := range evs1 {
				c.Fill(a)
			}
		}
		c.Fill(addrA)
		// Victim accesses in secret-dependent order.
		if victimOrder == "A-B" {
			c.Fill(addrA)
			c.Fill(addrB)
		} else {
			c.Fill(addrB)
			c.Fill(addrA)
		}
		// Probe: access EVS2.
		for _, a := range evs2 {
			c.Fill(a)
		}
		return c.Contains(addrA), c.Contains(addrB)
	}

	aRes, bRes := run("A-B")
	if aRes || !bRes {
		t.Errorf("A-B: residency A=%v B=%v, want A evicted, B resident", aRes, bRes)
	}
	aRes, bRes = run("B-A")
	if !aRes || bRes {
		t.Errorf("B-A: residency A=%v B=%v, want A resident, B evicted", aRes, bRes)
	}
}

// TestQLRUFigure8IntermediateStates pins down the intermediate set states
// the paper draws in Figure 8 (a) and (b) for the A-B order.
func TestQLRUFigure8IntermediateStates(t *testing.T) {
	const ways = 16
	c := NewCache("llc", 1, ways, 1, PolicyQLRU, nil)
	evs1 := make([]int64, 15)
	for i := range evs1 {
		evs1[i] = line(i + 1)
	}
	addrA, addrB := line(31), line(32)
	for round := 0; round < 4; round++ {
		for _, a := range evs1 {
			c.Fill(a)
		}
	}
	c.Fill(addrA)
	// After prime: EVS1 saturated at age 0, A inserted at age 1.
	for w := 0; w < 15; w++ {
		if c.age[w] != 0 {
			t.Errorf("after prime: age[%d] = %d, want 0", w, c.age[w])
		}
	}
	if c.age[15] != 1 {
		t.Errorf("after prime: age[A] = %d, want 1 (M1)", c.age[15])
	}
	// Victim A-B: hit on A (1->0), then miss on B ages everything to 3 and
	// evicts the leftmost line (EV0), inserting B at age 1.
	c.Fill(addrA)
	c.Fill(addrB)
	if !c.Contains(addrB) || c.Contains(evs1[0]) {
		t.Error("B should replace EV0")
	}
	if c.age[0] != 1 {
		t.Errorf("B age = %d, want 1", c.age[0])
	}
	for w := 1; w < 16; w++ {
		if c.age[w] != 3 {
			t.Errorf("age[%d] = %d, want 3 after U0 aging", w, c.age[w])
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRand(0).Uint64() == 0 {
		t.Error("zero seed must still produce values")
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Intn(0)")
		}
	}()
	r.Intn(0)
}

// Property: for every policy, with and without noise, the victim is always
// an in-range way, and it is the empty way whenever a set has one.
func TestVictimPropertyAllPolicies(t *testing.T) {
	const ways = 8
	for _, k := range policies {
		for _, noise := range []int{0, 30} {
			f := func(seq []uint8, emptyWay uint8) bool {
				c := fullSet(k, ways)
				if noise > 0 {
					c.AddReplacementNoise(noise)
				}
				for _, n := range seq {
					c.Fill(line(int(n) % (2 * ways)))
				}
				e := int(emptyWay) % ways
				c.Invalidate(c.tags[e])
				if v := c.victim(0); v != e {
					return false
				}
				c.Fill(line(2 * ways))
				v := c.victim(0)
				return v >= 0 && v < ways
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Errorf("%s noise=%d: %v", k, noise, err)
			}
		}
	}
}
