// Package schemes describes the invisible-speculation proposals the paper
// attacks (§2.2, §3.3.1) and the defenses it proposes (§5), as named
// uarch.SpecPolicy values:
//
//	unsafe                          — the unprotected baseline
//	dom, dom-tso                    — Delay-on-Miss, Sakalis et al. ISCA'19
//	invisispec-spectre, -futuristic — InvisiSpec, Yan et al. MICRO'18
//	safespec-wfb, safespec-wfc      — SafeSpec, Khasawneh et al. DAC'19
//	muontrap                        — MuonTrap, Ainsworth & Jones ISCA'20
//	condspec                        — Conditional Speculation, Li et al. HPCA'19
//	cleanupspec                     — CleanupSpec, Saileshwar & Qureshi MICRO'19
//	fence-spectre, -futuristic      — the §5.2 fence defense, plus their
//	                                  prediction-free -ideal variants that
//	                                  also satisfy the §5.1 definition exactly
//
// The schemes are behavioural models: each captures the load-visibility,
// shadow and instruction-fetch rules that the paper's Table 1 analysis
// depends on, not the proposals' full hardware detail.
package schemes

import (
	"fmt"

	"specinterference/internal/cache"
	"specinterference/internal/uarch"
)

// table holds every scheme, in the order Names reports them.
var table = []uarch.SpecPolicy{
	// The unprotected baseline: every load is visible, speculative fetch
	// fills the I-cache, nothing is gated.
	{Name: "unsafe"},

	// Delay-on-Miss (§2.2): a speculative load that hits the L1 executes
	// and forwards its result, deferring the replacement-state update
	// until it becomes safe; a speculative load that misses is delayed and
	// re-executed when safe. DoM leaves the I-cache unprotected (§3.2.2:
	// "Such accesses are performed by InvisiSpec and DoM").
	{Name: "dom", OnHit: uarch.ActInvisible, OnMiss: uarch.ActDelay, TouchOnSafe: true},
	// Delay-on-Miss under TSO: no two unprotected loads are concurrently in
	// flight, which closes the VD-VD reordering channel (Table 1 lists only
	// "DoM (non-TSO)" under GDNPEU VD-VD).
	{Name: "dom-tso", Shadow: uarch.ShadowSpectreTSO, OnHit: uarch.ActInvisible, OnMiss: uarch.ActDelay, TouchOnSafe: true},

	// InvisiSpec issues speculative loads as invisible requests that change
	// no cache state (but do occupy MSHRs on a miss — the GDMSHR lever),
	// then exposes/validates them with a visible access once safe. The
	// I-cache stays unprotected. The Spectre mode defends only control-flow
	// speculation: a load is safe once all older branches have resolved.
	{Name: "invisispec-spectre", OnHit: uarch.ActInvisible, OnMiss: uarch.ActInvisible, ExposeOnSafe: true},
	// The Futuristic mode defends all speculation sources: a load is safe
	// only once every older instruction has completed.
	{Name: "invisispec-futuristic", Shadow: uarch.ShadowFuturistic, OnHit: uarch.ActInvisible, OnMiss: uarch.ActInvisible, ExposeOnSafe: true},

	// SafeSpec buffers speculative loads in shadow structures: invisible
	// requests (MSHR-occupying on a miss) whose fills move into the real
	// caches when the load is safe. Unlike InvisiSpec/DoM, SafeSpec also
	// shadows speculative instruction fetches, so they leave no I-cache
	// state (hence SafeSpec is absent from the GIRS row of Table 1).
	// Wait-for-branch unprotects a load once older branches resolve.
	{Name: "safespec-wfb", OnHit: uarch.ActInvisible, OnMiss: uarch.ActInvisible, ExposeOnSafe: true, IFetch: uarch.IFetchInvisible},
	// Wait-for-commit unprotects a load only at the head of the ROB.
	{Name: "safespec-wfc", Shadow: uarch.ShadowFuturistic, OnHit: uarch.ActInvisible, OnMiss: uarch.ActInvisible, ExposeOnSafe: true, IFetch: uarch.IFetchInvisible},

	// MuonTrap gives each core a small filter cache for speculative fills:
	// a speculative load misses invisibly into the filter (occupying an
	// MSHR — the Table 1 GDMSHR row includes MuonTrap), hits in the filter
	// are served locally, the filter is flushed on squash, and surviving
	// lines install into the real hierarchy when the load commits
	// (commit-time unprotection). Visible accesses thus happen in commit
	// order, which closes VD-VD reordering but not the VD-AD/VI-AD
	// attacker-reference-clock orderings. MuonTrap filters instruction
	// fills too, so speculative fetch leaves no I-cache state.
	{
		Name: "muontrap", Shadow: uarch.ShadowFuturistic,
		OnHit: uarch.ActInvisible, OnMiss: uarch.ActInvisible, ExposeOnSafe: true,
		IFetch: uarch.IFetchInvisible, Filter: cache.Geometry{Sets: 8, Ways: 4, Latency: 2},
	},

	// Conditional Speculation (Li et al.): "suspicious" speculative loads —
	// cache misses — are delayed until the load is the oldest in flight;
	// speculative hits proceed without changing replacement state.
	// Speculative I-fetch misses are likewise held back.
	{Name: "condspec", Shadow: uarch.ShadowFuturistic, OnHit: uarch.ActInvisible, OnMiss: uarch.ActDelay, TouchOnSafe: true, IFetch: uarch.IFetchDelay},

	// CleanupSpec, Saileshwar & Qureshi's "undo" approach (discussed in the
	// paper's §6): speculative loads execute and fill caches normally, but
	// fills caused by squashed loads are invalidated when the squash
	// happens, and the recommended deployment randomizes LLC replacement to
	// blunt replacement-state receivers. CleanupSpec blocks the direct
	// transient footprint yet — as the paper notes — "does not block
	// speculative interference but makes its exploitation more
	// challenging": the bound-to-retire reordering survives, while the
	// QLRU receiver degrades once the LLC replacement is randomized (see
	// the ablation benchmarks).
	//
	// Modelling scope: data-side fill undo only (instruction fills are not
	// undone), and the replacement randomization is a machine
	// configuration (cache.PolicyRandom) rather than part of the policy.
	{Name: "cleanupspec", UndoSpeculativeFills: true},

	// The §5.2 basic defense: hardware-inserted fences that allow dispatch
	// but block issue until the fenced instruction becomes
	// non-speculative. Speculative I-fetch misses are held back so
	// wrong-path fetch cannot leave I-cache state. Loads decide Delay
	// defensively, though the issue gate keeps unsafe loads from ever
	// reaching that decision. The Spectre variant fences after every
	// conditional branch: younger instructions dispatch but do not issue
	// until the branch resolves.
	{Name: "fence-spectre", OnHit: uarch.ActDelay, OnMiss: uarch.ActDelay, IFetch: uarch.IFetchDelay, IssueOnlySafe: true},
	// The Futuristic variant fences after every instruction that may
	// squash: younger instructions issue only when all older ones have
	// completed.
	{Name: "fence-futuristic", Shadow: uarch.ShadowFuturistic, OnHit: uarch.ActDelay, OnMiss: uarch.ActDelay, IFetch: uarch.IFetchDelay, IssueOnlySafe: true},
	// The ideal variants additionally stop fetch (not just issue) inside a
	// speculative shadow and never consult the branch predictor: the
	// machine's visible LLC access pattern provably equals its
	// mis-speculation-free counterpart — C(E) = C(NoSpec(E)), the §5.1
	// definition. Without them a residual channel remains: wrong-path
	// fetch work can shift the *timing* (though not the content) of later
	// visible accesses around a squash, which is exactly the paper's point
	// that timing is hard to fully scrub out of cache-based definitions.
	{Name: "fence-spectre-ideal", OnHit: uarch.ActDelay, OnMiss: uarch.ActDelay, IFetch: uarch.IFetchDelay, IssueOnlySafe: true, StallFetchInShadow: true},
	{Name: "fence-futuristic-ideal", Shadow: uarch.ShadowFuturistic, OnHit: uarch.ActDelay, OnMiss: uarch.ActDelay, IFetch: uarch.IFetchDelay, IssueOnlySafe: true, StallFetchInShadow: true},
}

// ByName returns the named scheme.
func ByName(name string) (uarch.SpecPolicy, error) {
	for _, p := range table {
		if p.Name == name {
			return p, nil
		}
	}
	return uarch.SpecPolicy{}, fmt.Errorf("schemes: unknown scheme %q", name)
}

// Names lists every name ByName accepts, in the Table 1 harness order.
func Names() []string {
	names := make([]string, len(table))
	for i, p := range table {
		names[i] = p.Name
	}
	return names
}
