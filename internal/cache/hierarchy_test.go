package cache

import (
	"runtime/debug"
	"testing"

	"specinterference/internal/mem"
)

// smallConfig is a 2-core hierarchy small enough to reason about by hand.
func smallConfig() Config {
	return Config{
		Cores:      2,
		L1I:        Geometry{Sets: 8, Ways: 2, Latency: 1},
		L1D:        Geometry{Sets: 8, Ways: 2, Latency: 4},
		L2:         Geometry{Sets: 16, Ways: 2, Latency: 12},
		LLC:        Geometry{Sets: 32, Ways: 4, Latency: 40},
		LLCSlices:  1,
		L1Policy:   PolicyLRU,
		LLCPolicy:  PolicyQLRU,
		MemLatency: 150,
		DMSHRs:     4,
		Seed:       1,
	}
}

func TestHierarchyMissLatencyStack(t *testing.T) {
	h := NewHierarchy(smallConfig())
	r := h.AccessData(0, 0x1000, KindDataRead, true, 100)
	// Cold miss: L1(4) + L2(12) + LLC(40) + Mem(150).
	if r.Level != LevelMem {
		t.Errorf("level = %s, want Mem", r.Level)
	}
	if want := int64(100 + 4 + 12 + 40 + 150); r.Ready != want {
		t.Errorf("ready = %d, want %d", r.Ready, want)
	}
}

func TestHierarchyHitLatencies(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.AccessData(0, 0x1000, KindDataRead, true, 0)
	// Now an L1 hit.
	r := h.AccessData(0, 0x1000, KindDataRead, true, 500)
	if r.Level != LevelL1 || r.Ready != 504 {
		t.Errorf("L1 hit = %s/%d", r.Level, r.Ready)
	}
	// Evict from L1 only: other core's L1 state does not matter.
	h.L1D(0).Invalidate(0x1000)
	r = h.AccessData(0, 0x1000, KindDataRead, true, 600)
	if r.Level != LevelL2 || r.Ready != 600+4+12 {
		t.Errorf("L2 hit = %s/%d", r.Level, r.Ready)
	}
	h.L1D(0).Invalidate(0x1000)
	h.L2(0).Invalidate(0x1000)
	r = h.AccessData(0, 0x1000, KindDataRead, true, 700)
	if r.Level != LevelLLC || r.Ready != 700+4+12+40 {
		t.Errorf("LLC hit = %s/%d", r.Level, r.Ready)
	}
}

func TestHierarchyNoL2(t *testing.T) {
	cfg := smallConfig()
	cfg.L2 = Geometry{}
	h := NewHierarchy(cfg)
	if h.HasL2() || h.L2(0) != nil {
		t.Fatal("L2 should be absent")
	}
	r := h.AccessData(0, 0x1000, KindDataRead, true, 0)
	if want := int64(4 + 40 + 150); r.Ready != want {
		t.Errorf("ready = %d, want %d", r.Ready, want)
	}
}

func TestHierarchyInvisibleAccessChangesNothing(t *testing.T) {
	h := NewHierarchy(smallConfig())
	r := h.AccessData(0, 0x2000, KindDataRead, false, 0)
	if r.Level != LevelMem {
		t.Errorf("level = %s", r.Level)
	}
	if h.L1D(0).Contains(0x2000) || h.L2(0).Contains(0x2000) || h.LLCSlice(0x2000).Contains(0x2000) {
		t.Error("invisible access must not fill any level")
	}
	if len(h.Log()) != 0 {
		t.Error("invisible access must not be logged")
	}
	// Invisible access still observes current contents for latency.
	h.Warm(0, 0x2000, LevelLLC)
	r = h.AccessData(0, 0x2000, KindDataRead, false, 0)
	if r.Level != LevelLLC {
		t.Errorf("invisible access should see warmed LLC, got %s", r.Level)
	}
}

func TestHierarchyVisibleLog(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.AccessData(0, 0x3000, KindDataRead, true, 10)  // miss → logged
	h.AccessData(0, 0x3000, KindDataRead, true, 400) // L1 hit → not logged
	h.AccessData(1, 0x3000, KindDataRead, true, 500) // other core: LLC hit → logged
	log := h.Log()
	if len(log) != 2 {
		t.Fatalf("log length = %d, want 2: %+v", len(log), log)
	}
	if log[0].Core != 0 || log[0].Line != 0x3000 || log[0].Hit {
		t.Errorf("log[0] = %+v", log[0])
	}
	if log[1].Core != 1 || !log[1].Hit {
		t.Errorf("log[1] = %+v", log[1])
	}
	h.ResetLog()
	if len(h.Log()) != 0 {
		t.Error("ResetLog failed")
	}
	h.SetLogging(false)
	h.AccessData(0, 0x9000, KindDataRead, true, 0)
	if len(h.Log()) != 0 {
		t.Error("logging-off still logged")
	}
}

func TestHierarchyInclusiveBackInvalidation(t *testing.T) {
	cfg := smallConfig()
	cfg.LLC = Geometry{Sets: 1, Ways: 2, Latency: 40} // tiny LLC forces evictions
	h := NewHierarchy(cfg)
	h.AccessData(0, 0x0000, KindDataRead, true, 0)
	h.AccessData(0, 0x0040, KindDataRead, true, 0)
	if !h.L1D(0).Contains(0x0000) {
		t.Fatal("line should be in L1")
	}
	// Third line evicts one of the first two from the LLC; the private
	// copies must be back-invalidated.
	h.AccessData(0, 0x0080, KindDataRead, true, 0)
	inLLC0 := h.LLCSlice(0).Contains(0x0000)
	inLLC1 := h.LLCSlice(0).Contains(0x0040)
	if inLLC0 && inLLC1 {
		t.Fatal("LLC eviction expected")
	}
	if !inLLC0 && h.L1D(0).Contains(0x0000) {
		t.Error("L1 copy survived LLC eviction (inclusion violated)")
	}
	if !inLLC1 && h.L1D(0).Contains(0x0040) {
		t.Error("L1 copy survived LLC eviction (inclusion violated)")
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.AccessData(0, 0x4000, KindDataRead, true, 0)
	h.AccessData(1, 0x4000, KindDataRead, true, 0)
	h.Flush(0x4000)
	if h.L1D(0).Contains(0x4000) || h.L1D(1).Contains(0x4000) ||
		h.L2(0).Contains(0x4000) || h.L2(1).Contains(0x4000) ||
		h.LLCSlice(0x4000).Contains(0x4000) {
		t.Error("flush must remove every copy")
	}
}

func TestHierarchyWarmLevels(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.Warm(0, 0x5000, LevelLLC)
	if h.L1D(0).Contains(0x5000) || h.L2(0).Contains(0x5000) {
		t.Error("Warm(LLC) must not fill private levels")
	}
	if !h.LLCSlice(0x5000).Contains(0x5000) {
		t.Error("Warm(LLC) must fill LLC")
	}
	h.Warm(0, 0x5040, LevelL2)
	if !h.L2(0).Contains(0x5040) || h.L1D(0).Contains(0x5040) {
		t.Error("Warm(L2) fills LLC+L2 only")
	}
	h.Warm(0, 0x5080, LevelL1)
	if !h.L1D(0).Contains(0x5080) || !h.L2(0).Contains(0x5080) {
		t.Error("Warm(L1) fills all levels")
	}
	if len(h.Log()) != 0 {
		t.Error("Warm must not log")
	}
}

func TestHierarchyWarmInst(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.WarmInst(0, 0x6000, LevelL1)
	if !h.L1I(0).Contains(0x6000) {
		t.Error("WarmInst should fill L1I")
	}
	r := h.AccessInst(0, 0x6000, true, 0)
	if r.Level != LevelL1 {
		t.Errorf("I-fetch level = %s", r.Level)
	}
}

func TestHierarchyInstFetchSeparateFromData(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.AccessInst(0, 0x7000, true, 0)
	if h.L1D(0).Contains(0x7000) {
		t.Error("I-fetch must not fill L1D")
	}
	if !h.L1I(0).Contains(0x7000) {
		t.Error("I-fetch should fill L1I")
	}
	// Both sides share the LLC.
	if !h.LLCSlice(0x7000).Contains(0x7000) {
		t.Error("I-fetch should fill LLC")
	}
	log := h.Log()
	if len(log) != 1 || log[0].Kind != KindInstFetch {
		t.Errorf("log = %+v", log)
	}
}

func TestHierarchyL1DHitAndTouch(t *testing.T) {
	h := NewHierarchy(smallConfig())
	if h.L1DHit(0, 0x8000) {
		t.Error("cold line reported hit")
	}
	h.Warm(0, 0x8000, LevelL1)
	if !h.L1DHit(0, 0x8000) {
		t.Error("warm line reported miss")
	}
	// TouchL1D is the DoM deferred replacement update; it must not panic
	// and must keep the line resident.
	h.TouchL1D(0, 0x8000)
	if !h.L1DHit(0, 0x8000) {
		t.Error("touch lost the line")
	}
}

func TestHierarchyMemJitterDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.MemJitter = 20
	h1 := NewHierarchy(cfg)
	h2 := NewHierarchy(cfg)
	for i := int64(0); i < 10; i++ {
		r1 := h1.AccessData(0, 0x10000+i*4096, KindDataRead, true, 0)
		r2 := h2.AccessData(0, 0x10000+i*4096, KindDataRead, true, 0)
		if r1.Ready != r2.Ready {
			t.Fatal("jitter must be reproducible for equal seeds")
		}
	}
}

func TestFindEvictionSet(t *testing.T) {
	cfg := smallConfig()
	cfg.LLCSlices = 2
	h := NewHierarchy(cfg)
	target := int64(0x9000)
	avoid := []int64{0xa000}
	ev := cfg.EvictionSet(target, 8, 0x100000, avoid)
	if len(ev) != 8 {
		t.Fatalf("got %d addresses", len(ev))
	}
	wantSet := mem.SetIndex(target, cfg.LLC.Sets)
	wantSlice := mem.SliceIndex(target, cfg.LLCSlices)
	seen := map[int64]bool{}
	for _, a := range ev {
		if mem.SetIndex(a, cfg.LLC.Sets) != wantSet {
			t.Errorf("addr %#x maps to wrong set", a)
		}
		if mem.SliceIndex(a, cfg.LLCSlices) != wantSlice {
			t.Errorf("addr %#x maps to wrong slice", a)
		}
		if a == mem.LineAddr(target) || a == mem.LineAddr(avoid[0]) {
			t.Errorf("addr %#x collides with target/avoid", a)
		}
		if seen[a] {
			t.Errorf("duplicate %#x", a)
		}
		seen[a] = true
	}
	// Accessing the eviction set must actually evict the target from LLC.
	h.Warm(0, target, LevelLLC)
	for round := 0; round < 3; round++ {
		for _, a := range ev {
			h.AccessData(1, a, KindDataRead, true, 0)
		}
	}
	if h.LLCSlice(target).Contains(target) {
		t.Error("eviction set failed to evict target")
	}
}

func TestHierarchyConstructorPanics(t *testing.T) {
	bad1 := smallConfig()
	bad1.Cores = 0
	bad2 := smallConfig()
	bad2.LLCSlices = 0
	for i, cfg := range []Config{bad1, bad2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewHierarchy(cfg)
		}()
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig(4)
	h := NewHierarchy(cfg)
	if h.Config().Cores != 4 {
		t.Error("cores")
	}
	r := h.AccessData(0, 0x1234, KindDataRead, true, 0)
	if r.Level != LevelMem || r.Ready <= 0 {
		t.Errorf("cold access = %+v", r)
	}
	if h.DMSHR(0).Cap() != 10 {
		t.Error("default MSHR count should be 10")
	}
}

func TestLevelAndKindStrings(t *testing.T) {
	if LevelL1.String() != "L1" || LevelMem.String() != "Mem" {
		t.Error("level names")
	}
	if KindDataRead.String() != "read" || KindInstFetch.String() != "fetch" {
		t.Error("kind names")
	}
	if Level(9).String() == "" || AccessKind(9).String() == "" {
		t.Error("unknown enums should still render")
	}
}

// TestNewHierarchyAllocsIndependentOfSize pins machine construction's
// allocation count to the hierarchy's shape, not its size: each cache
// keeps its state in a fixed number of flat arrays, so a config with every
// level's Sets multiplied by 4 builds with exactly as many allocations. A
// heap object per set would add allocations with every set.
func TestNewHierarchyAllocsIndependentOfSize(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	allocs := func(cfg Config) float64 {
		// A collection during the runs can allocate on its own.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(3, func() { NewHierarchy(cfg) })
	}
	noisyRandom := DefaultConfig(2)
	noisyRandom.LLCPolicy = PolicyRandom
	noisyRandom.LLCReplacementNoisePct = 10
	srrip := smallConfig()
	srrip.L1Policy, srrip.LLCPolicy = PolicySRRIP, PolicySRRIP
	noL2 := smallConfig()
	noL2.L2 = Geometry{}
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(1), "small": smallConfig(), "noisy-random": noisyRandom,
		"srrip": srrip, "no-l2": noL2,
	} {
		big := cfg
		for _, g := range []*Geometry{&big.L1I, &big.L1D, &big.L2, &big.LLC} {
			g.Sets *= 4
		}
		if n, nBig := allocs(cfg), allocs(big); n != nBig {
			t.Errorf("%s: NewHierarchy makes %v allocations, %v with 4x the sets", name, n, nBig)
		}
	}
}
