package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Class grades one field's baseline-versus-current comparison.
type Class int

const (
	// Same: the field matches the baseline (exactly, for gated fields).
	Same Class = iota
	// Improved: notably better than baseline (faster / fewer allocs).
	// Exact-gated fields report Improved too, but the check still fails —
	// an improvement should be blessed into the trajectory, not ignored.
	Improved
	// Drift: inside the tolerance band; expected machine noise.
	Drift
	// Regression: worse than the baseline beyond tolerance, or an exact
	// field that changed. Fails the check.
	Regression
	// Missing: the benchmark or metric exists on one side only.
	Missing
)

// String renders the class for reports.
func (c Class) String() string {
	switch c {
	case Same:
		return "same"
	case Improved:
		return "improved"
	case Drift:
		return "drift"
	case Regression:
		return "REGRESSION"
	case Missing:
		return "MISSING"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Tolerance is the gate policy.
type Tolerance struct {
	// NsBand is the allowed ns/op ratio in either direction. Wall time
	// varies across machines and load, so the default is deliberately
	// generous; the allocation gates carry the precision.
	NsBand float64
	// AllocBand is the allocs/op ratio band for benchmarks not listed in
	// ExactAllocs.
	AllocBand float64
	// ByteBand is the B/op ratio band for benchmarks not in ExactAllocs.
	ByteBand float64
	// ExactAllocs lists canonical benchmark names whose allocs/op and
	// B/op must match the baseline exactly — the steady-state hot-path
	// benchmarks whose alloc-free contract this store exists to pin.
	ExactAllocs map[string]bool
}

// DefaultTolerance returns the committed gate policy.
func DefaultTolerance() Tolerance {
	return Tolerance{
		NsBand:    8.0,
		AllocBand: 1.3,
		ByteBand:  1.5,
		ExactAllocs: map[string]bool{
			"TrialSteadyStateFigure7":    true,
			"TrialSteadyStateMatrixCell": true,
			"TrialSteadyStatePoCBit":     true,
			"SummarizeBaseline":          true,
			// The component microbenchmarks isolate the simulator's cycle-
			// level hot paths; all are allocation-free in steady state.
			"StepMixedKernel":       true,
			"StepComputeKernel":     true,
			"HierarchyAccessL1Hit":  true,
			"HierarchyMissWalk":     true,
			"MemoryReadWrite":       true,
			"SystemResetAfterTrial": true,
		},
	}
}

// Delta is one field's comparison.
type Delta struct {
	Name  string  // canonical benchmark name
	Field string  // "ns/op", "allocs/op", "B/op", or a metric unit
	Base  float64 // baseline value
	Cur   float64 // current value
	Class Class
	Why   string
}

// fails reports whether the delta should fail a check. Exact-gated
// improvements fail too: the fix is `benchstore bless`, recording the
// better number as the new floor.
func (d Delta) fails(exact bool) bool {
	return d.Class == Regression || d.Class == Missing ||
		(exact && d.Class == Improved)
}

// Diff compares a current measurement against a baseline entry under the
// tolerance policy, one Delta per field.
func Diff(name string, base, cur Entry, tol Tolerance) []Delta {
	exact := tol.ExactAllocs[name]
	var out []Delta
	out = append(out, band(name, "ns/op", base.NsPerOp, cur.NsPerOp, tol.NsBand))
	if exact {
		out = append(out,
			exactDelta(name, "allocs/op", base.AllocsPerOp, cur.AllocsPerOp),
			exactDelta(name, "B/op", base.BytesPerOp, cur.BytesPerOp))
	} else {
		out = append(out,
			band(name, "allocs/op", base.AllocsPerOp, cur.AllocsPerOp, tol.AllocBand),
			band(name, "B/op", base.BytesPerOp, cur.BytesPerOp, tol.ByteBand))
	}
	units := map[string]bool{}
	for u := range base.Metrics {
		units[u] = true
	}
	for u := range cur.Metrics {
		units[u] = true
	}
	sorted := make([]string, 0, len(units))
	for u := range units {
		sorted = append(sorted, u)
	}
	sort.Strings(sorted)
	for _, u := range sorted {
		bv, bok := base.Metrics[u]
		cv, cok := cur.Metrics[u]
		switch {
		case !bok:
			out = append(out, Delta{Name: name, Field: u, Cur: cv, Class: Missing,
				Why: "metric absent from baseline — bless to record it"})
		case !cok:
			out = append(out, Delta{Name: name, Field: u, Base: bv, Class: Missing,
				Why: "metric no longer reported"})
		default:
			out = append(out, exactDelta(name, u, bv, cv))
		}
	}
	return out
}

// band grades a machine-dependent field inside a ratio tolerance.
func band(name, field string, base, cur, ratio float64) Delta {
	d := Delta{Name: name, Field: field, Base: base, Cur: cur}
	switch {
	case base == cur:
		d.Class = Same
	case base == 0:
		d.Class = Regression
		d.Why = fmt.Sprintf("baseline is 0, current is %g", cur)
	case cur > base*ratio:
		d.Class = Regression
		d.Why = fmt.Sprintf("%.2fx over baseline (band %.2gx)", cur/base, ratio)
	case cur < base/ratio:
		d.Class = Improved
		d.Why = fmt.Sprintf("%.2fx under baseline", base/cur)
	default:
		d.Class = Drift
	}
	return d
}

// exactDelta grades a deterministic field: any mismatch is a finding.
func exactDelta(name, field string, base, cur float64) Delta {
	d := Delta{Name: name, Field: field, Base: base, Cur: cur}
	switch {
	case base == cur:
		d.Class = Same
	case cur < base:
		d.Class = Improved
		d.Why = "better than the blessed baseline — bless to record the new floor"
	default:
		d.Class = Regression
		d.Why = "exact-gated field changed"
	}
	return d
}

// CheckReport is the outcome of comparing one suite run against the store.
type CheckReport struct {
	Deltas []Delta
	// Failures holds the deltas that fail the gate, in report order.
	Failures []Delta
}

// OK reports whether the check passed.
func (r *CheckReport) OK() bool { return len(r.Failures) == 0 }

// Check compares a parsed suite run against every committed trajectory.
// Both directions gate: a result with no trajectory file means the
// baseline was never blessed, and a trajectory whose benchmark vanished
// from the suite means coverage silently regressed.
func Check(store *Store, results []Result, tol Tolerance) (*CheckReport, error) {
	rep := &CheckReport{}
	seen := map[string]bool{}
	for _, res := range results {
		seen[res.Name] = true
		t, err := store.Load(res.Name)
		if err != nil {
			return nil, err
		}
		if t == nil {
			rep.Deltas = append(rep.Deltas, Delta{Name: res.Name, Field: "-", Class: Missing,
				Why: "no committed trajectory — run `benchstore bless`"})
			continue
		}
		base, err := t.Baseline()
		if err != nil {
			return nil, err
		}
		rep.Deltas = append(rep.Deltas, Diff(res.Name, base, res.Entry, tol)...)
	}
	names, err := store.Names()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if !seen[name] {
			rep.Deltas = append(rep.Deltas, Delta{Name: name, Field: "-", Class: Missing,
				Why: "committed trajectory has no benchmark in this run"})
		}
	}
	for _, d := range rep.Deltas {
		if d.fails(tol.ExactAllocs[d.Name]) {
			rep.Failures = append(rep.Failures, d)
		}
	}
	return rep, nil
}

// Bless appends every result to its trajectory file, stamped with the
// given provenance.
func Bless(store *Store, results []Result, date, commit, goVersion, note string) error {
	for _, res := range results {
		e := res.Entry
		e.Date, e.Commit, e.Go, e.Note = date, commit, goVersion, note
		if err := store.Append(res.Name, e); err != nil {
			return err
		}
	}
	return nil
}

// Format renders a check report, failures last so they end up adjacent to
// the CI log tail.
func (r *CheckReport) Format(verbose bool) string {
	var b strings.Builder
	for _, d := range r.Deltas {
		if !verbose && (d.Class == Same || d.Class == Drift) {
			continue
		}
		writeDelta(&b, d)
	}
	if len(r.Failures) == 0 {
		fmt.Fprintf(&b, "benchstore: ok (%d comparisons)\n", len(r.Deltas))
		return b.String()
	}
	fmt.Fprintf(&b, "benchstore: %d comparison(s) FAILED:\n", len(r.Failures))
	for _, d := range r.Failures {
		b.WriteString("  ")
		writeDelta(&b, d)
	}
	return b.String()
}

func writeDelta(b *strings.Builder, d Delta) {
	fmt.Fprintf(b, "%-11s %s %s: %g -> %g", d.Class, d.Name, d.Field, d.Base, d.Cur)
	if d.Why != "" {
		fmt.Fprintf(b, " (%s)", d.Why)
	}
	b.WriteByte('\n')
}
