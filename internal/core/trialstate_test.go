package core

import (
	"runtime"
	"testing"

	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
)

// sweepCase is one fresh-vs-reused comparison. When scheme is set, the
// victim runs under that named scheme.
type sweepCase struct {
	spec   TrialSpec
	scheme string
}

// trialStateSweep covers every gadget/ordering combination plus the shape
// (jitter, noise), seed and policy axes — the surface the reuse fast path
// must keep bit-identical to fresh construction.
func trialStateSweep() []sweepCase {
	return []sweepCase{
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 0, Trace: true}},
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Jitter: 5, Seed: 7, Trace: true}},
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDAD, Secret: 1, RefCycle: 300}},
		{spec: TrialSpec{Gadget: GadgetMSHR, Ordering: OrderVDVD, Secret: 1}},
		{spec: TrialSpec{Gadget: GadgetMSHR, Ordering: OrderVDAD, Secret: 0, RefCycle: 250}},
		{spec: TrialSpec{Gadget: GadgetRS, Ordering: OrderVIAD, Secret: 1, RefCycle: 200}},
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Jitter: 5, ReplNoisePct: 10, Seed: 3}},
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Jitter: 5, Seed: 7, Trace: true}}, // shape revisit
		{spec: TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Trace: true}, scheme: "dom"},
		{spec: TrialSpec{Gadget: GadgetRS, Ordering: OrderVIAD, Secret: 1, RefCycle: 200}, scheme: "invisispec-spectre"},
	}
}

// TestTrialStateMatchesRunTrial pins the tentpole equivalence: one reused
// TrialState stepping through a shape- and seed-varying spec sequence
// produces trial-for-trial the results fresh RunTrial machines produce.
func TestTrialStateMatchesRunTrial(t *testing.T) {
	ts := NewTrialState()
	for i, tc := range trialStateSweep() {
		withPolicy := func() TrialSpec {
			spec := tc.spec
			if tc.scheme != "" {
				p, err := schemes.ByName(tc.scheme)
				if err != nil {
					t.Fatal(err)
				}
				spec.Policy = p
			}
			return spec
		}
		fresh, err := RunTrial(withPolicy())
		if err != nil {
			t.Fatalf("spec %d: fresh: %v", i, err)
		}
		reused, err := ts.Run(withPolicy())
		if err != nil {
			t.Fatalf("spec %d: reused: %v", i, err)
		}
		if got, want := reused.Signature(), fresh.Signature(); got != want {
			t.Errorf("spec %d: signature %q != fresh %q", i, got, want)
		}
		if reused.SecretLineCycle != fresh.SecretLineCycle {
			t.Errorf("spec %d: secret-line cycle %d != fresh %d",
				i, reused.SecretLineCycle, fresh.SecretLineCycle)
		}
		if reused.VictimStats != fresh.VictimStats {
			t.Errorf("spec %d: victim stats %+v != fresh %+v",
				i, reused.VictimStats, fresh.VictimStats)
		}
		if len(reused.Events) != len(fresh.Events) {
			t.Errorf("spec %d: %d events != fresh %d", i, len(reused.Events), len(fresh.Events))
		} else {
			for j := range reused.Events {
				if reused.Events[j] != fresh.Events[j] {
					t.Errorf("spec %d event %d: %+v != fresh %+v",
						i, j, reused.Events[j], fresh.Events[j])
				}
			}
		}
		if len(reused.Records) != len(fresh.Records) {
			t.Errorf("spec %d: %d records != fresh %d", i, len(reused.Records), len(fresh.Records))
		} else {
			for j := range reused.Records {
				if reused.Records[j] != fresh.Records[j] {
					t.Errorf("spec %d record %d: %+v != fresh %+v",
						i, j, reused.Records[j], fresh.Records[j])
					break
				}
			}
		}
	}
}

// TestTrialStatePoCBitMatchesFresh pins the PoC fast path (memoized
// receiver and programs on a reused machine) against fresh per-bit
// machines, for every PoC kind.
func TestTrialStatePoCBitMatchesFresh(t *testing.T) {
	pocs := []*PoC{
		NewDCachePoC("dom", 0),
		NewICachePoC("invisispec-spectre", 0),
		{SchemeName: "invisispec-spectre", Kind: MSHRPoC},
	}
	for _, poc := range pocs {
		// freshOutcomes replays the pre-reuse flow: a brand-new TrialState
		// per bit, so nothing is memoized across bits.
		type key struct{ bit, rep int }
		want := map[key]BitOutcome{}
		for rep := 0; rep < 2; rep++ {
			for bit := 0; bit <= 1; bit++ {
				spec, err := poc.spec(bit, uint64(rep+1))
				if err != nil {
					t.Fatal(err)
				}
				st := NewTrialState()
				var out BitOutcome
				if poc.Kind == ICachePoC {
					out, err = poc.runICacheBit(st, spec)
				} else {
					out, err = poc.runReplacementStateBit(st, spec)
				}
				if err != nil {
					t.Fatalf("%s fresh bit %d rep %d: %v", poc.Kind, bit, rep, err)
				}
				want[key{bit, rep}] = out
			}
		}
		// RunBit goes through the pooled, memoized path.
		for rep := 0; rep < 2; rep++ {
			for bit := 0; bit <= 1; bit++ {
				out, err := poc.RunBit(bit, uint64(rep+1))
				if err != nil {
					t.Fatalf("%s pooled bit %d rep %d: %v", poc.Kind, bit, rep, err)
				}
				if out != want[key{bit, rep}] {
					t.Errorf("%s bit %d rep %d: pooled outcome %+v != fresh %+v",
						poc.Kind, bit, rep, out, want[key{bit, rep}])
				}
			}
		}
	}
}

// TestTrialStateTweakBypassesReuse: tweaked specs must build fresh
// machines with the tweaked config (and skip the receiver memo), and must
// not poison the cached machine for subsequent untweaked trials.
func TestTrialStateTweakBypassesReuse(t *testing.T) {
	ts := NewTrialState()
	plain := TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1}
	before, err := ts.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	sigBefore := before.Signature()
	cachedSys, victimBefore := ts.sys, before.Victim

	tweaked := plain
	tweaked.Tweak = func(c *uarch.Config) { c.Cache.DMSHRs = 2 }
	rTweaked, err := ts.Run(tweaked)
	if err != nil {
		t.Fatal(err)
	}
	if rTweaked.System == cachedSys {
		t.Error("tweaked trial ran on the cached machine")
	}
	if got := rTweaked.System.Hierarchy().DMSHR(0).Cap(); got != 2 {
		t.Errorf("tweaked machine has %d L1D MSHRs, want the tweak's 2", got)
	}
	if rTweaked.Victim != victimBefore {
		// The MSHR count does not move the layout, so the key is the same.
		t.Error("tweaked trial rebuilt a victim the state's memo already held")
	}

	after, err := ts.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if after.System != cachedSys {
		t.Error("untweaked trial after a tweak did not reuse the cached machine")
	}
	if got, want := after.System.Hierarchy().DMSHR(0).Cap(), AttackConfig().Cache.DMSHRs; got != want {
		t.Errorf("reused machine has %d L1D MSHRs after a tweak detour, want AttackConfig's %d", got, want)
	}
	if got := after.Signature(); got != sigBefore {
		t.Errorf("signature after tweak detour %q != before %q", got, sigBefore)
	}
}

// TestTrialLoopAllocFree pins the tentpole's headline number: the
// steady-state per-trial loops allocate nothing once their worker state is
// warm. It counts every heap allocation of ten warm runs rather than
// testing.AllocsPerRun's truncated average, so even one stray allocation
// in ten runs fails loudly.
func TestTrialLoopAllocFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	warm := func(f func()) uint64 {
		// One P, as in AllocsPerRun, so the pooled state stays put.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC() // keep an organic GC from emptying the pool mid-measurement
		f()          // warm the pooled TrialState, memos and buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	if n := warm(func() {
		if _, err := Figure7Shard(40, 30, 1, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Figure7Shard steady-state trial: %d allocs in 10 runs, want 0", n)
	}

	poc := NewDCachePoC("dom", 0)
	if n := warm(func() {
		if _, err := poc.RunBit(1, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PoC RunBit steady-state trial: %d allocs in 10 runs, want 0", n)
	}

	// A matrix cell runs two to four trials and formats their signatures;
	// once its victim and signature memos are warm, every one of the 98
	// cells is allocation-free (a cell was ~25k allocs before the reuse
	// layer). Policies are plain values and the core reuses its filter
	// cache, so no scheme allocates per cell.
	names := schemes.Names()
	for j := 0; j < MatrixShards(names); j++ {
		if n := warm(func() {
			if _, err := MatrixShard(names, j); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("MatrixShard cell %d steady state: %d allocs in 10 runs, want 0", j, n)
		}
	}
}
