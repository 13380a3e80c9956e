package core

import (
	"testing"

	"specinterference/internal/cache"
	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
)

// mustScheme returns the named scheme, failing the test on an unknown name.
func mustScheme(t *testing.T, name string) uarch.SpecPolicy {
	t.Helper()
	p, err := schemes.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCleanupSpecStillReorders verifies the paper's §6 remark: CleanupSpec
// undoes speculative fills but "does not block speculative interference" —
// the bound-to-retire loads A and B still reorder with the secret.
func TestCleanupSpecStillReorders(t *testing.T) {
	var sigs [2]string
	for secret := 0; secret <= 1; secret++ {
		r, err := RunTrial(TrialSpec{
			Gadget: GadgetNPEU, Ordering: OrderVDVD,
			Policy: mustScheme(t, "cleanupspec"), Secret: secret,
		})
		if err != nil {
			t.Fatal(err)
		}
		sigs[secret] = r.Signature()
	}
	if sigs[0] == sigs[1] {
		t.Error("CleanupSpec should not block the GDNPEU reordering")
	}
}

// TestCleanupSpecUndoesTransientFootprint checks the scheme's actual
// guarantee: a squashed load's fill disappears.
func TestCleanupSpecUndoesTransientFootprint(t *testing.T) {
	r, err := RunTrial(TrialSpec{
		Gadget: GadgetNPEU, Ordering: OrderVDVD,
		Policy: mustScheme(t, "cleanupspec"), Secret: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The transmitter line S+64 was speculatively accessed (L1 hit — no
	// fill to undo) but the access load's line T[i] was warmed, so probe
	// something that only the squashed path could have filled: under
	// secret=1 nothing beyond primed lines should survive. Check that the
	// transmitter's *miss* line S+0 was never left behind.
	h := r.System.Hierarchy()
	if h.LLCSlice(r.Layout.SBase).Contains(r.Layout.SBase) {
		t.Error("squashed-path line survived in the LLC")
	}
}

// TestCleanupSpecRandomReplacementBreaksQLRUReceiver quantifies the other
// half of the §6 remark: with randomized LLC replacement (CleanupSpec's
// deployment), the replacement-state receiver degrades to guessing even
// though the reordering itself persists.
func TestCleanupSpecRandomReplacementBreaksQLRUReceiver(t *testing.T) {
	accuracy := func(policy cache.PolicyKind) int {
		poc := &PoC{SchemeName: "cleanupspec", Kind: DCachePoC}
		poc.Tweak = func(c *uarch.Config) { c.Cache.LLCPolicy = policy }
		good := 0
		for i := 0; i < 12; i++ {
			out, err := poc.RunBit(i%2, uint64(100+i))
			if err != nil {
				t.Fatal(err)
			}
			if out.OK && out.Decoded == i%2 {
				good++
			}
		}
		return good
	}
	qlru := accuracy(cache.PolicyQLRU)
	random := accuracy(cache.PolicyRandom)
	if qlru < 11 {
		t.Errorf("QLRU receiver should decode reliably, got %d/12", qlru)
	}
	if random >= 11 {
		t.Errorf("random replacement should degrade the receiver, got %d/12", random)
	}
}

// TestCleanupSpecBlocksDirectSpectreFootprint mirrors the schemes-package
// footprint test for the extension scheme.
func TestCleanupSpecBlocksDirectSpectreFootprint(t *testing.T) {
	// Reuse the trial machinery: under CleanupSpec the NPEU gadget's
	// squashed loads must leave no fills, so its probe-line behaviour for a
	// FIXED secret is identical to a run where the gadget was never
	// fetched (fence defense), modulo the non-speculative A/B accesses.
	r1, err := RunTrial(TrialSpec{
		Gadget: GadgetNPEU, Ordering: OrderVDVD,
		Policy: mustScheme(t, "cleanupspec"), Secret: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunTrial(TrialSpec{
		Gadget: GadgetNPEU, Ordering: OrderVDVD,
		Policy: mustScheme(t, "fence-spectre"), Secret: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Signature() != r2.Signature() {
		t.Errorf("secret-0 probe pattern differs from the fence reference: %q vs %q",
			r1.Signature(), r2.Signature())
	}
}
