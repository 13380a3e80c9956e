package core

import "testing"

// TestVictimCacheIdenticalTrials proves the batch-trial fast path is
// invisible: a trial that builds its victim program from scratch (cold
// cache) and a trial that reuses the memoized program produce identical
// probe signatures, and the cached program is the same code BuildVictim
// emits.
func TestVictimCacheIdenticalTrials(t *testing.T) {
	spec := TrialSpec{
		Gadget: GadgetNPEU, Ordering: OrderVDVD,
		Secret: 1, Jitter: 5, Seed: 7,
	}

	resetVictimCache()
	defer resetVictimCache()
	cold, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := VictimCacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("cold trial: hits=%d misses=%d, want 0/1", hits, misses)
	}

	warm, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := VictimCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("warm trial: hits=%d misses=%d, want 1/1", hits, misses)
	}

	if got, want := warm.Signature(), cold.Signature(); got != want {
		t.Errorf("cached trial signature %q differs from uncached %q", got, want)
	}
	if warm.SecretLineCycle != cold.SecretLineCycle {
		t.Errorf("cached trial secret-line cycle %d differs from uncached %d",
			warm.SecretLineCycle, cold.SecretLineCycle)
	}

	// The memoized program is exactly what a fresh build emits.
	fresh, err := BuildVictim(spec.Gadget, spec.Ordering, warm.Layout, DefaultVictimParams())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm.Victim.Prog.String(), fresh.Prog.String(); got != want {
		t.Errorf("cached program differs from a fresh build:\n%s\nvs\n%s", got, want)
	}
	if warm.Victim.BranchPC != fresh.BranchPC || warm.Victim.APC != fresh.APC ||
		warm.Victim.BPC != fresh.BPC || warm.Victim.TargetLine != fresh.TargetLine {
		t.Errorf("cached victim metadata %+v differs from fresh %+v", warm.Victim, fresh)
	}
}

// TestVictimCacheKeysDistinct: different gadgets, orderings and params
// must never share a cache entry.
func TestVictimCacheKeysDistinct(t *testing.T) {
	resetVictimCache()
	defer resetVictimCache()
	specs := []TrialSpec{
		{Gadget: GadgetNPEU, Ordering: OrderVDVD},
		{Gadget: GadgetNPEU, Ordering: OrderVIAD},
		{Gadget: GadgetMSHR, Ordering: OrderVDVD},
		{Gadget: GadgetRS, Ordering: OrderVIAD},
	}
	progs := map[string]bool{}
	for _, s := range specs {
		r, err := RunTrial(s)
		if err != nil {
			t.Fatalf("%s/%s: %v", s.Gadget, s.Ordering, err)
		}
		progs[r.Victim.Prog.String()] = true
	}
	if len(progs) != len(specs) {
		t.Fatalf("distinct specs shared programs: %d unique of %d", len(progs), len(specs))
	}
	if _, misses := VictimCacheStats(); misses != uint64(len(specs)) {
		t.Errorf("misses = %d, want %d (one per distinct key)", misses, len(specs))
	}

	// Params changes miss too.
	p := DefaultVictimParams()
	p.FChain += 2
	if _, err := RunTrial(TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Params: p}); err != nil {
		t.Fatal(err)
	}
	if _, misses := VictimCacheStats(); misses != uint64(len(specs))+1 {
		t.Errorf("param change did not miss the cache (misses=%d)", misses)
	}
}

// TestVictimCacheParallelHarness: the cache sits under concurrent shards;
// Figure7Shard on four workers must stay bit-identical to one worker (the
// runner's seed discipline) while sharing one cached victim.
func TestVictimCacheParallelHarness(t *testing.T) {
	resetVictimCache()
	defer resetVictimCache()
	serial := shardFigure7(t, 4, 10, 1, 1)
	parallel := shardFigure7(t, 4, 10, 1, 4)
	for i := range serial.Baseline {
		if serial.Baseline[i] != parallel.Baseline[i] ||
			serial.Interference[i] != parallel.Interference[i] {
			t.Fatalf("trial %d diverged across worker counts with a shared victim cache", i)
		}
	}
	hits, misses := VictimCacheStats()
	if misses == 0 || hits == 0 {
		t.Errorf("expected both misses and hits across 16 trials, got hits=%d misses=%d", hits, misses)
	}
	if misses > 5 {
		// 16 trials over one (gadget, ordering, layout, params) tuple: at
		// worst the serial first build plus four racing parallel builds.
		t.Errorf("cache misses %d times for one victim tuple", misses)
	}
}
