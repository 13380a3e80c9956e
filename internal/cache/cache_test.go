package cache

import (
	"math"
	"testing"
)

func TestCacheFillAndContains(t *testing.T) {
	c := NewCache("t", 4, 2, 1, PolicyLRU, nil)
	if c.Contains(0x100) {
		t.Error("empty cache contains nothing")
	}
	c.Fill(0x100)
	if !c.Contains(0x100) {
		t.Error("filled line missing")
	}
	// Same line, different offset.
	if !c.Contains(0x13f) {
		t.Error("same-line offset should hit")
	}
	if c.Contains(0x140) {
		t.Error("next line should miss")
	}
}

func TestCacheLookupCountsStats(t *testing.T) {
	c := NewCache("t", 4, 2, 1, PolicyLRU, nil)
	c.Fill(0x100)
	if !c.Lookup(0x100) {
		t.Error("lookup should hit")
	}
	if c.Lookup(0x999999) {
		t.Error("lookup should miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheLookupDoesNotUpdateReplacement(t *testing.T) {
	c := NewCache("t", 1, 2, 1, PolicyLRU, nil)
	c.Fill(0x000) // way0, older
	c.Fill(0x040) // way1, newer
	// Plain Lookup of 0x000 must not refresh it...
	c.Lookup(0x000)
	c.Fill(0x080) // needs a victim: still 0x000
	if c.Contains(0x000) {
		t.Error("Lookup should not have refreshed 0x000")
	}
	if !c.Contains(0x040) {
		t.Error("0x040 should survive")
	}
}

func TestCacheTouchUpdatesReplacement(t *testing.T) {
	c := NewCache("t", 1, 2, 1, PolicyLRU, nil)
	c.Fill(0x000)
	c.Fill(0x040)
	if !c.Touch(0x000) {
		t.Error("touch should find the line")
	}
	c.Fill(0x080)
	if !c.Contains(0x000) {
		t.Error("touched line should survive")
	}
	if c.Contains(0x040) {
		t.Error("untouched line should be the victim")
	}
	if c.Touch(0xdead00) {
		t.Error("touch of absent line should report false")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache("t", 1, 2, 1, PolicyLRU, nil)
	c.Fill(0x000)
	c.Fill(0x040)
	ev, has := c.Fill(0x080)
	if !has || ev != 0x000 {
		t.Errorf("evicted = %#x/%v, want 0x0", ev, has)
	}
	if c.Stats().Evictions != 1 {
		t.Error("eviction not counted")
	}
}

func TestCacheRefillIsTouch(t *testing.T) {
	c := NewCache("t", 1, 2, 1, PolicyLRU, nil)
	c.Fill(0x000)
	c.Fill(0x040)
	// Re-filling a resident line must not duplicate or evict.
	if _, has := c.Fill(0x000); has {
		t.Error("refill should not evict")
	}
	c.Fill(0x080)
	if !c.Contains(0x000) || c.Contains(0x040) {
		t.Error("refill should have refreshed recency of 0x000")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache("t", 2, 2, 1, PolicyLRU, nil)
	c.Fill(0x100)
	if !c.Invalidate(0x100) {
		t.Error("invalidate should find line")
	}
	if c.Contains(0x100) {
		t.Error("line should be gone")
	}
	if c.Invalidate(0x100) {
		t.Error("second invalidate should miss")
	}
	if c.Stats().Invalidates != 1 {
		t.Error("invalidate not counted")
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	c := NewCache("t", 2, 2, 1, PolicyLRU, nil)
	for i := int64(0); i < 8; i++ {
		c.Fill(i * 64)
	}
	c.InvalidateAll()
	for i := int64(0); i < 8; i++ {
		if c.Contains(i * 64) {
			t.Fatalf("line %d survived InvalidateAll", i)
		}
	}
}

func TestCacheSetConflictsOnly(t *testing.T) {
	// 4 sets: lines 0 and 4 conflict; lines 0 and 1 do not.
	c := NewCache("t", 4, 1, 1, PolicyLRU, nil)
	c.Fill(0 * 64)
	c.Fill(1 * 64)
	if !c.Contains(0) || !c.Contains(64) {
		t.Error("different sets should coexist")
	}
	c.Fill(4 * 64)
	if c.Contains(0) {
		t.Error("set conflict should evict line 0")
	}
	if !c.Contains(64) {
		t.Error("line 1 untouched by conflict in set 0")
	}
}

func TestCacheLinesInSet(t *testing.T) {
	c := NewCache("t", 1, 4, 1, PolicyLRU, nil)
	c.Fill(0x000)
	c.Fill(0x040)
	lines := c.LinesInSet(0)
	if len(lines) != 2 || lines[0] != 0 || lines[1] != 0x40 {
		t.Errorf("LinesInSet = %#v", lines)
	}
}

func TestCacheAccessors(t *testing.T) {
	c := NewCache("name", 8, 4, 3, PolicySRRIP, nil)
	if c.Name() != "name" || c.Sets() != 8 || c.Ways() != 4 || c.Latency() != 3 {
		t.Error("accessor mismatch")
	}
	if c.SetOf(9*64) != 1 {
		t.Errorf("SetOf = %d", c.SetOf(9*64))
	}
}

// TestCacheSetFills: each set counts the lines Fill installs in it. A
// refill of a present line is a touch and counts nothing, and so does an
// invalidation; Reset zeroes the counts.
func TestCacheSetFills(t *testing.T) {
	c := NewCache("c", 4, 2, 1, PolicyLRU, nil)
	const set1, set2 = 1 * 64, 2 * 64
	c.Fill(set1)
	c.Fill(set1 + 4*64)
	c.Fill(set1) // present: a touch
	c.Fill(set1 + 8*64)
	c.Invalidate(set1 + 8*64)
	if got := c.SetFills(set1 + 12*64); got != 3 {
		t.Errorf("set 1 fills = %d, want 3", got)
	}
	if got := c.SetFills(set2); got != 0 {
		t.Errorf("set 2 fills = %d, want 0", got)
	}
	c.Reset()
	if got := c.SetFills(set1); got != 0 {
		t.Errorf("set 1 fills after Reset = %d, want 0", got)
	}
}

func TestCacheConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewCache("x", 3, 2, 1, PolicyLRU, nil) },
		func() { NewCache("x", 0, 2, 1, PolicyLRU, nil) },
		func() { NewCache("x", 4, 0, 1, PolicyLRU, nil) },
		func() { NewCache("x", 4, 2, 0, PolicyLRU, nil) },
		func() { NewCache("x", 4, 2, 1, PolicyQLRU, nil).AddReplacementNoise(5) },
		func() { NewCache("x", 4, 2, 1, PolicyQLRU, NewRand(1)).AddReplacementNoise(0) },
		func() { NewCache("x", 4, 2, 1, PolicyQLRU, NewRand(1)).AddReplacementNoise(101) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNewCacheRandomNeedsRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCache("x", 4, 2, 1, PolicyRandom, nil)
}

func TestNewCacheUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCache("x", 4, 2, 1, PolicyKind(42), nil)
}

func TestMSHRAllocateAndReap(t *testing.T) {
	f := NewMSHRFile(2)
	if f.Cap() != 2 {
		t.Error("cap")
	}
	if !f.Allocate(0x000, 100, 0) {
		t.Error("first allocate should succeed")
	}
	if !f.Allocate(0x040, 120, 0) {
		t.Error("second allocate should succeed")
	}
	if f.Allocate(0x080, 130, 0) {
		t.Error("third allocate should fail: file full")
	}
	if f.InUse(0) != 2 {
		t.Errorf("InUse = %d", f.InUse(0))
	}
	// NextReady names the earliest fill after now, whether or not the
	// fills before it have been reaped yet.
	if got := f.NextReady(0); got != 100 {
		t.Errorf("NextReady(0) = %d, want 100", got)
	}
	if got := f.NextReady(100); got != 120 {
		t.Errorf("NextReady(100) before reap = %d, want 120", got)
	}
	// At cycle 100 the first entry has completed.
	if f.InUse(100) != 1 {
		t.Errorf("InUse(100) = %d", f.InUse(100))
	}
	if got := f.NextReady(100); got != 120 {
		t.Errorf("NextReady(100) after reap = %d, want 120", got)
	}
	// After a reap at now, the minimum ready cycle is NextReady(now).
	if got := f.MinReady(); got != 120 {
		t.Errorf("MinReady after the reap at 100 = %d, want 120", got)
	}
	if !f.Allocate(0x080, 200, 100) {
		t.Error("allocate after reap should succeed")
	}
}

func TestMSHRCoalesce(t *testing.T) {
	f := NewMSHRFile(1)
	f.Allocate(0x100, 150, 0)
	ready, ok := f.Lookup(0x108, 10) // same line, different offset
	if !ok || ready != 150 {
		t.Errorf("Lookup = %d, %v", ready, ok)
	}
	if _, ok := f.Lookup(0x140, 10); ok {
		t.Error("different line should not coalesce")
	}
}

func TestMSHRDoubleAllocatePanics(t *testing.T) {
	f := NewMSHRFile(2)
	f.Allocate(0x100, 50, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.Allocate(0x100, 60, 0)
}

func TestMSHRClear(t *testing.T) {
	f := NewMSHRFile(2)
	f.Allocate(0x100, 1000, 0)
	f.Clear()
	if f.InUse(0) != 0 {
		t.Error("clear should empty the file")
	}
	if got := f.NextReady(0); got != math.MaxInt64 {
		t.Errorf("NextReady after clear = %d, want none", got)
	}
	if got := f.MinReady(); got != math.MaxInt64 {
		t.Errorf("MinReady after clear = %d, want none", got)
	}
}

func TestMSHRBadCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMSHRFile(0)
}
