package detect

import (
	"fmt"

	"specinterference/internal/core"
	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
)

// CellVerdict statically analyzes one Table 1 cell: it builds the cell's
// victim program and priming plans exactly as the empirical harness does,
// runs the self-composed analysis under the named scheme, and applies the
// per-ordering decision rule.
func CellVerdict(schemeName string, g core.Gadget, ord core.Ordering) (Verdict, error) {
	policy, err := schemes.ByName(schemeName)
	if err != nil {
		return Verdict{}, err
	}
	fail := func(err error) (Verdict, error) {
		return Verdict{}, fmt.Errorf("detect: %s/%s/%s: %w", schemeName, g, ord, err)
	}
	l := core.DefaultLayout(core.AttackConfig().Cache)
	v, err := core.BuildVictim(g, ord, l, core.DefaultVictimParams())
	if err != nil {
		return fail(err)
	}
	var envs [2]Env
	for s := 0; s < 2; s++ {
		plan, err := v.PrimePlan(s)
		if err != nil {
			return fail(err)
		}
		envs[s] = EnvFromPlan(plan)
	}
	rep, err := Analyze(v.Prog, policy, envs, DefaultParams())
	if err != nil {
		return fail(err)
	}
	if rep.ArchDiff {
		// The Table 1 victims are constant-time on the correct path by
		// construction; a divergence means the victim builder broke, not
		// that the scheme leaks.
		return Verdict{}, fmt.Errorf("detect: %s/%s/%s: architectural trace depends on the secret", schemeName, g, ord)
	}
	return cellVerdict(rep, ord, core.ProbeLines(g, ord, l, v)), nil
}

// cellVerdict is the decision rule: policy gates first, then the first
// differential-pressure signal that fires (NPEU, MSHR, RS), then the
// ordering-specific visibility conditions that decide whether the
// pressure reaches a receiver. It reads no gadget label: the signal names
// the mechanism.
func cellVerdict(rep *Report, ord core.Ordering, probes [2]int64) Verdict {
	p := rep.Policy
	if p.StallFetchInShadow {
		return Verdict{Leak: false, Mechanism: MechNoSpecFetch}
	}
	if !p.CanIssue(false) {
		return Verdict{Leak: false, Mechanism: MechNoSpecIssue}
	}

	var mech string
	switch {
	case rep.SqrtDiff():
		mech = MechNPEU
	case rep.MSHRDiff():
		mech = MechMSHR
	case rep.RSDiff():
		mech = MechRS
	}
	if mech == "" {
		if ord == core.OrderVDVD && rep.FootprintDiff(probes) {
			return Verdict{Leak: true, Mechanism: MechFootprint}
		}
		return Verdict{Leak: false, Mechanism: MechNoPressure}
	}

	switch ord {
	case core.OrderVDVD:
		if rep.FootprintDiff(probes) {
			return Verdict{Leak: true, Mechanism: MechFootprint}
		}
		// The VD-VD receiver reads the ORDER of the victim's own two
		// visible accesses, so pressure only transmits when the scheme
		// lets the delayed load overtake: under TSO (loads stay ordered)
		// or under a futuristic shadow with no visibly-executing
		// speculative loads, visibility is program-ordered regardless of
		// pressure.
		if p.Shadow == uarch.ShadowSpectreTSO ||
			(p.Shadow == uarch.ShadowFuturistic && !rep.AnyVisibleLoad()) {
			return Verdict{Leak: false, Mechanism: MechOrdered}
		}
		// If the wrong path itself visibly caches the reference line under
		// both secrets, the reference access hits and emits no visible
		// event — the clock the receiver compares against disappears.
		if rep.Absorbed(probes[1]) {
			return Verdict{Leak: false, Mechanism: MechAbsorbed}
		}
		return Verdict{Leak: true, Mechanism: mech}
	case core.OrderVDAD:
		// The attacker's cross-core reference load is non-speculative and
		// non-delayable; any differential delay of the victim's visible
		// load flips its order against the reference.
		return Verdict{Leak: true, Mechanism: mech}
	case core.OrderVIAD:
		if mech == MechRS {
			// The G_IRS receiver probes the I-cache line of the
			// not-yet-fetched target block, so the clog must modulate a
			// VISIBLE speculative fetch of that line.
			if p.IFetch != uarch.IFetchVisible {
				return Verdict{Leak: false, Mechanism: MechIFetchProtected}
			}
			if !rep.TargetFetchedWhenDrained(probes[0]) {
				return Verdict{Leak: false, Mechanism: MechTargetNotFetched}
			}
			return Verdict{Leak: true, Mechanism: MechRS}
		}
		// For G_NPEU/G_MSHR the VI receiver times the committed done-block
		// fetch — a correct-path access no speculation scheme may hide —
		// so differential pressure transmits unconditionally.
		return Verdict{Leak: true, Mechanism: mech}
	}
	return Verdict{Leak: false, Mechanism: MechNoPressure}
}

// Cell is one concordance cell: the static verdict side by side with the
// empirical simulator classification.
type Cell struct {
	Scheme   string
	Gadget   core.Gadget
	Ordering core.Ordering
	// Empirical is the simulator's Table 1 classification.
	Empirical bool
	// Detector is the static verdict.
	Detector bool
	// Mechanism is the detector's decisive rule.
	Mechanism string
	// Match is Empirical == Detector. A mismatch is an error: the detector
	// is exact on the full grid.
	Match bool
}

// Shard computes concordance cell j of core.MatrixShards(schemeNames):
// core.MatrixShard classifies the cell empirically and names its scheme,
// gadget and ordering, and the static analysis then judges that same
// cell. It is a pure function of (schemeNames, j), so it runs
// identically on any execution backend.
func Shard(schemeNames []string, j int) (Cell, error) {
	empirical, err := core.MatrixShard(schemeNames, j)
	if err != nil {
		return Cell{}, err
	}
	v, err := CellVerdict(empirical.Scheme, empirical.Gadget, empirical.Ordering)
	if err != nil {
		return Cell{}, err
	}
	c := Cell{
		Scheme:    empirical.Scheme,
		Gadget:    empirical.Gadget,
		Ordering:  empirical.Ordering,
		Empirical: empirical.Vulnerable,
		Detector:  v.Leak,
		Mechanism: v.Mechanism,
	}
	c.Match = c.Empirical == c.Detector
	return c, nil
}

// CheckCells returns an error naming every detector/simulator mismatch
// in cells (nil when fully concordant).
func CheckCells(cells []Cell) error {
	var bad []string
	for _, c := range cells {
		if !c.Match {
			bad = append(bad, fmt.Sprintf("%s/%s/%s: empirical=%v detector=%v (%s)",
				c.Scheme, c.Gadget, c.Ordering, c.Empirical, c.Detector, c.Mechanism))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("detect: %d concordance mismatches: %v", len(bad), bad)
	}
	return nil
}
