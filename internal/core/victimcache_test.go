package core

import "testing"

// TestVictimCacheIdenticalTrials proves the victim memo is invisible: a
// trial that builds its victim program (cold memo) and a trial that
// reuses the memoized program produce identical probe signatures, and the
// memoized program is the same code BuildVictim emits.
func TestVictimCacheIdenticalTrials(t *testing.T) {
	spec := TrialSpec{
		Gadget: GadgetNPEU, Ordering: OrderVDVD,
		Secret: 1, Jitter: 5, Seed: 7,
	}

	ts := NewTrialState()
	cold, err := ts.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ts.victims); n != 1 {
		t.Fatalf("cold trial: %d memo entries, want 1", n)
	}
	// The result aliases the state, so keep what the warm run overwrites.
	coldSig, coldCycle, coldVictim := cold.Signature(), cold.SecretLineCycle, cold.Victim

	warm, err := ts.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ts.victims); n != 1 {
		t.Fatalf("warm trial: %d memo entries, want 1", n)
	}
	if warm.Victim != coldVictim {
		t.Error("warm trial rebuilt its victim instead of reusing the memoized one")
	}

	if got := warm.Signature(); got != coldSig {
		t.Errorf("memoized trial signature %q differs from cold %q", got, coldSig)
	}
	if warm.SecretLineCycle != coldCycle {
		t.Errorf("memoized trial secret-line cycle %d differs from cold %d",
			warm.SecretLineCycle, coldCycle)
	}

	// The memoized program is exactly what a fresh build emits.
	fresh, err := BuildVictim(spec.Gadget, spec.Ordering, warm.Layout, DefaultVictimParams())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm.Victim.Prog.String(), fresh.Prog.String(); got != want {
		t.Errorf("memoized program differs from a fresh build:\n%s\nvs\n%s", got, want)
	}
	if warm.Victim.BranchPC != fresh.BranchPC || warm.Victim.APC != fresh.APC ||
		warm.Victim.BPC != fresh.BPC || warm.Victim.TargetLine != fresh.TargetLine {
		t.Errorf("memoized victim metadata %+v differs from fresh %+v", warm.Victim, fresh)
	}
}

// TestVictimCacheKeysDistinct: different gadgets, orderings and params
// must never share a memo entry.
func TestVictimCacheKeysDistinct(t *testing.T) {
	ts := NewTrialState()
	specs := []TrialSpec{
		{Gadget: GadgetNPEU, Ordering: OrderVDVD},
		{Gadget: GadgetNPEU, Ordering: OrderVIAD},
		{Gadget: GadgetMSHR, Ordering: OrderVDVD},
		{Gadget: GadgetRS, Ordering: OrderVIAD},
	}
	progs := map[string]bool{}
	for _, s := range specs {
		r, err := ts.Run(s)
		if err != nil {
			t.Fatalf("%s/%s: %v", s.Gadget, s.Ordering, err)
		}
		progs[r.Victim.Prog.String()] = true
	}
	if len(progs) != len(specs) {
		t.Fatalf("distinct specs shared programs: %d unique of %d", len(progs), len(specs))
	}
	if n := len(ts.victims); n != len(specs) {
		t.Errorf("%d memo entries, want %d (one per distinct key)", n, len(specs))
	}

	// Params changes miss too.
	p := DefaultVictimParams()
	p.FChain += 2
	if _, err := ts.Run(TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Params: p}); err != nil {
		t.Fatal(err)
	}
	if n := len(ts.victims); n != len(specs)+1 {
		t.Errorf("param change did not miss the memo (%d entries)", n)
	}
}

// TestVictimCacheParallelHarness: memoized victims sit under concurrent
// shards; Figure7Shard on four workers must stay bit-identical to one
// worker (the runner's seed discipline), and one state running the same
// shards memoizes a single victim.
func TestVictimCacheParallelHarness(t *testing.T) {
	serial := shardFigure7(t, 4, 10, 1, 1)
	parallel := shardFigure7(t, 4, 10, 1, 4)
	for i := range serial.Baseline {
		if serial.Baseline[i] != parallel.Baseline[i] ||
			serial.Interference[i] != parallel.Interference[i] {
			t.Fatalf("trial %d diverged across worker counts with memoized victims", i)
		}
	}
	// The same 8 shards on one state, with Figure7Shard's secret and seed
	// mapping: 8 trials over one (gadget, ordering, layout, params) tuple,
	// so the first builds the victim and the other seven hit the memo.
	want := append(append([]float64{}, serial.Baseline...), serial.Interference...)
	ts := NewTrialState()
	for j, w := range want {
		secret, i := j/4, j%4
		lat, err := measureTargetLatency(ts, secret, 10, 1+uint64(2*i+secret))
		if err != nil {
			t.Fatal(err)
		}
		if lat != w {
			t.Fatalf("shard %d on one state: latency %v, harness %v", j, lat, w)
		}
	}
	if n := len(ts.victims); n != 1 {
		t.Errorf("%d memo entries for one victim tuple, want 1", n)
	}
}
