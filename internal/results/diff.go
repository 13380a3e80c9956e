package results

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"specinterference/internal/workload"
)

// DiffClass classifies the difference between two comparable records, in
// increasing severity. A report's class is the maximum over its findings.
type DiffClass int

const (
	// Identical: the canonical signatures match — nothing changed.
	Identical DiffClass = iota
	// Drift: numeric outcomes moved within thresholds and no qualitative
	// result changed (expected when seeds, noise models or tie-breaking
	// details are touched).
	Drift
	// Regression: a qualitative result flipped or a metric crossed its
	// threshold — a (gadget, scheme) matrix cell changing
	// vulnerable↔protected, channel error rates collapsing, the Figure 7
	// separation disappearing, or defense overheads shifting wholesale.
	Regression
	// Incomparable: the records cannot be diffed (different experiments,
	// parameters or schema versions). Gating treats this as a failure:
	// a baseline whose parameters silently changed is not a baseline.
	Incomparable
)

// String implements fmt.Stringer.
func (c DiffClass) String() string {
	switch c {
	case Identical:
		return "identical"
	case Drift:
		return "drift"
	case Regression:
		return "regression"
	case Incomparable:
		return "incomparable"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classification thresholds. Small-trial runs are intentionally coarse,
// so the regression thresholds are generous: they catch qualitative
// breakage, not noise.
const (
	// SeparationDropFrac: the Figure 7 arm separation shrinking by more
	// than this fraction of the old value is a regression (the
	// interference effect the whole attack rests on is disappearing).
	SeparationDropFrac = 0.5
	// OverlapRise: the Figure 7 histogram overlap coefficient rising by
	// more than this absolute amount is a regression (arms merging).
	OverlapRise = 0.25
	// ErrorRateRise: a Figure 11 point's bit error rate rising by more
	// than this absolute amount is a regression (channel accuracy drop).
	ErrorRateRise = 0.2
	// SlowdownFactor: a Figure 12 slowdown changing by more than this
	// multiplicative factor (either direction) is a regression.
	SlowdownFactor = 1.5
)

// Finding is one classified difference.
type Finding struct {
	Class  DiffClass `json:"class"`
	Detail string    `json:"detail"`
}

// DiffReport is the classified comparison of two records of the same
// experiment.
type DiffReport struct {
	Experiment string    `json:"experiment"`
	Class      DiffClass `json:"class"`
	Findings   []Finding `json:"findings,omitempty"`
}

// add records a finding and raises the report class.
func (d *DiffReport) add(c DiffClass, format string, args ...interface{}) {
	d.Findings = append(d.Findings, Finding{Class: c, Detail: fmt.Sprintf(format, args...)})
	if c > d.Class {
		d.Class = c
	}
}

// Format renders the report for terminals: one header line plus one line
// per finding.
func (d *DiffReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %s\n", d.Experiment, strings.ToUpper(d.Class.String()))
	for _, f := range d.Findings {
		fmt.Fprintf(&b, "  [%s] %s\n", f.Class, f.Detail)
	}
	return b.String()
}

// Diff compares an old record against a new one. Worker counts, git
// revisions and the rest of Meta never matter; records of the same
// experiment at the same parameters with equal signatures are Identical
// regardless of how they were produced.
func Diff(old, new *Record) *DiffReport {
	d := &DiffReport{Experiment: old.Experiment}
	if old.Experiment != new.Experiment {
		d.Experiment = old.Experiment + "→" + new.Experiment
		d.add(Incomparable, "different experiments: %s vs %s", old.Experiment, new.Experiment)
		return d
	}
	if old.Schema != new.Schema {
		d.add(Incomparable, "schema version changed: %d vs %d", old.Schema, new.Schema)
		return d
	}
	if !paramsEqual(old.Params, new.Params) {
		d.add(Incomparable, "parameters differ: %+v vs %+v", old.Params, new.Params)
		return d
	}
	// Compare recomputed signatures, not the stored strings: a record
	// whose hash field is absent (hand-edited fixture) must still diff as
	// identical against a byte-identical payload.
	oldHash, oldErr := old.ComputeHash()
	newHash, newErr := new.ComputeHash()
	if oldErr == nil && newErr == nil && oldHash == newHash {
		return d // Identical
	}
	switch old.Experiment {
	case ExpFigure7:
		diffFigure7(d, old.Figure7, new.Figure7)
	case ExpTable1:
		diffTable1(d, old.Table1, new.Table1)
	case ExpFigure11:
		diffFigure11(d, old.Figure11, new.Figure11)
	case ExpFigure12:
		diffFigure12(d, old.Figure12, new.Figure12)
	case ExpConcordance:
		diffConcordance(d, old.Concordance, new.Concordance)
	default:
		d.add(Incomparable, "unknown experiment %q", old.Experiment)
	}
	if len(d.Findings) == 0 {
		// The canonical bytes changed but no classifier fired (e.g. a
		// latency vector reordered without moving any summary): drift.
		d.add(Drift, "payload bytes changed without crossing any threshold")
	}
	return d
}

func paramsEqual(a, b Params) bool {
	return a.Trials == b.Trials && a.Jitter == b.Jitter && a.Seed == b.Seed &&
		a.Bits == b.Bits && a.Iters == b.Iters &&
		slices.Equal(a.Schemes, b.Schemes) && slices.Equal(a.PoCs, b.PoCs) &&
		slices.Equal(a.Reps, b.Reps)
}

func diffFigure7(d *DiffReport, old, new *Figure7Payload) {
	if sep := math.Abs(old.Separation); sep > 0 {
		// Project the new separation onto the old effect's direction: a
		// sign inversion is a full collapse (drop > 1), not a small
		// absolute change.
		aligned := new.Separation
		if old.Separation < 0 {
			aligned = -aligned
		}
		drop := (sep - aligned) / sep
		if drop > SeparationDropFrac {
			d.add(Regression, "interference separation collapsed: %.1f → %.1f cycles (-%.0f%%)",
				old.Separation, new.Separation, drop*100)
		} else if old.Separation != new.Separation {
			d.add(Drift, "separation %.1f → %.1f cycles", old.Separation, new.Separation)
		}
	}
	if rise := new.Overlap - old.Overlap; rise > OverlapRise {
		d.add(Regression, "histogram overlap rose: %.3f → %.3f (arms merging)", old.Overlap, new.Overlap)
	} else if new.Overlap != old.Overlap {
		d.add(Drift, "overlap %.3f → %.3f", old.Overlap, new.Overlap)
	}
}

// cellKey names one Table 1 grid cell.
type cellKey struct{ scheme, gadget, ordering string }

// String renders the key as scheme/gadget/ordering.
func (k cellKey) String() string { return k.scheme + "/" + k.gadget + "/" + k.ordering }

func (c Table1Cell) key() cellKey      { return cellKey{c.Scheme, c.Gadget, c.Ordering} }
func (c ConcordanceCell) key() cellKey { return cellKey{c.Scheme, c.Gadget, c.Ordering} }

// sortedKeys returns m's keys ordered by gadget, ordering, then scheme.
func sortedKeys[C any](m map[cellKey]C) []cellKey {
	keys := make([]cellKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b cellKey) int {
		return cmp.Or(strings.Compare(a.gadget, b.gadget),
			strings.Compare(a.ordering, b.ordering), strings.Compare(a.scheme, b.scheme))
	})
	return keys
}

// diffCells pairs two grids' cells by (scheme, gadget, ordering), reports
// a cell missing on either side as incomparable, and hands every pair to
// compare in sortedKeys order.
func diffCells[C interface{ key() cellKey }](d *DiffReport, old, new []C, compare func(k cellKey, oc, nc C)) {
	index := func(cells []C) map[cellKey]C {
		m := make(map[cellKey]C, len(cells))
		for _, c := range cells {
			m[c.key()] = c
		}
		return m
	}
	oldCells, newCells := index(old), index(new)
	for _, k := range sortedKeys(oldCells) {
		nc, ok := newCells[k]
		if !ok {
			d.add(Incomparable, "cell %s missing from new record", k)
			continue
		}
		compare(k, oldCells[k], nc)
	}
	for _, k := range sortedKeys(newCells) {
		if _, ok := oldCells[k]; !ok {
			d.add(Incomparable, "cell %s missing from old record", k)
		}
	}
}

func diffTable1(d *DiffReport, old, new *Table1Payload) {
	diffCells(d, old.Cells, new.Cells, func(k cellKey, oc, nc Table1Cell) {
		if oc.Vulnerable != nc.Vulnerable {
			d.add(Regression, "matrix cell %s under %s/%s flipped %s → %s",
				k.scheme, k.gadget, k.ordering, vulnWord(oc.Vulnerable), vulnWord(nc.Vulnerable))
		} else if oc.RefCycle != nc.RefCycle {
			d.add(Drift, "cell %s reference cycle %d → %d", k, oc.RefCycle, nc.RefCycle)
		}
	})
}

func vulnWord(v bool) string {
	if v {
		return "vulnerable"
	}
	return "protected"
}

func diffConcordance(d *DiffReport, old, new *ConcordancePayload) {
	diffCells(d, old.Cells, new.Cells, func(k cellKey, oc, nc ConcordanceCell) {
		switch {
		// A verdict flip (on either side) or a lost agreement is a
		// regression: the detector or the simulator changed its mind about
		// a security property.
		case oc.Detector != nc.Detector || oc.Empirical != nc.Empirical || oc.Match != nc.Match:
			d.add(Regression, "cell %s changed: empirical %v→%v, detector %v→%v (match %v→%v)",
				k, oc.Empirical, nc.Empirical, oc.Detector, nc.Detector, oc.Match, nc.Match)
		case oc.Mechanism != nc.Mechanism:
			d.add(Drift, "cell %s mechanism %q → %q", k, oc.Mechanism, nc.Mechanism)
		}
	})
}

func diffFigure11(d *DiffReport, old, new *Figure11Payload) {
	index := func(p *Figure11Payload) map[string]Figure11Curve {
		m := make(map[string]Figure11Curve, len(p.Curves))
		for _, c := range p.Curves {
			m[c.PoC+"/"+c.Scheme] = c
		}
		return m
	}
	oldCurves, newCurves := index(old), index(new)
	keys := make([]string, 0, len(oldCurves))
	for k := range oldCurves {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		oc := oldCurves[k]
		nc, ok := newCurves[k]
		if !ok {
			d.add(Incomparable, "curve %s missing from new record", k)
			continue
		}
		// Points pair positionally: equal Params.Reps guarantees the same
		// sweep order, and duplicate reps values (measured at distinct
		// seeds) stay distinct points.
		if len(oc.Points) != len(nc.Points) {
			d.add(Incomparable, "curve %s has %d points vs %d", k, len(oc.Points), len(nc.Points))
			continue
		}
		for i, op := range oc.Points {
			np := nc.Points[i]
			if np.Reps != op.Reps {
				d.add(Incomparable, "curve %s point %d is reps=%d vs reps=%d", k, i, op.Reps, np.Reps)
				continue
			}
			if rise := np.ErrorRate - op.ErrorRate; rise > ErrorRateRise {
				d.add(Regression, "curve %s reps=%d error rate rose %.3f → %.3f (channel accuracy drop)",
					k, op.Reps, op.ErrorRate, np.ErrorRate)
			} else if op != np {
				d.add(Drift, "curve %s reps=%d moved (error %.3f → %.3f, %.0f → %.0f cycles/bit)",
					k, op.Reps, op.ErrorRate, np.ErrorRate, op.CyclesPerBit, np.CyclesPerBit)
			}
		}
	}
	for k := range newCurves {
		if _, ok := oldCurves[k]; !ok {
			d.add(Incomparable, "curve %s missing from old record", k)
		}
	}
}

func diffFigure12(d *DiffReport, old, new *workload.EvalResult) {
	newRows := make(map[string]workload.EvalRow, len(new.Rows))
	for _, r := range new.Rows {
		newRows[r.Workload] = r
	}
	for _, or := range old.Rows {
		nr, ok := newRows[or.Workload]
		if !ok {
			d.add(Incomparable, "workload %s missing from new record", or.Workload)
			continue
		}
		schemes := make([]string, 0, len(or.Slowdown))
		for s := range or.Slowdown {
			schemes = append(schemes, s)
		}
		sort.Strings(schemes)
		for _, s := range schemes {
			osd, nsd := or.Slowdown[s], nr.Slowdown[s]
			if osd <= 0 || nsd <= 0 {
				d.add(Incomparable, "%s/%s has non-positive slowdown (%.3f → %.3f)", or.Workload, s, osd, nsd)
				continue
			}
			if ratio := nsd / osd; ratio > SlowdownFactor || ratio < 1/SlowdownFactor {
				d.add(Regression, "%s under %s slowdown shifted %.2fx → %.2fx", or.Workload, s, osd, nsd)
			} else if osd != nsd {
				d.add(Drift, "%s under %s slowdown %.3fx → %.3fx", or.Workload, s, osd, nsd)
			}
		}
		if or.BaselineCycles != nr.BaselineCycles {
			d.add(Drift, "%s baseline cycles %d → %d", or.Workload, or.BaselineCycles, nr.BaselineCycles)
		}
	}
	for _, nr := range new.Rows {
		found := false
		for _, or := range old.Rows {
			if or.Workload == nr.Workload {
				found = true
				break
			}
		}
		if !found {
			d.add(Incomparable, "workload %s missing from old record", nr.Workload)
		}
	}
}
