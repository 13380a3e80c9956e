// Package security implements the §5.1 "ideal invisible speculation"
// definition and its checker.
//
// Definition (paraphrasing the paper): let C(E) be the sequence of visible
// shared-cache (LLC) accesses of an execution E, without timing, and let
// NoSpec(E) be the execution that would have occurred had E contained no
// mis-speculations. A design provides ideal invisible speculation iff for
// every execution E: C(E) = C(NoSpec(E)) — non-interference in the sense of
// Goguen-Meseguer.
//
// The checker realizes NoSpec(E) as the same machine, same scheme, same
// initial state, driven by a perfect branch oracle recorded from the
// architectural emulator: everything is identical except that no
// misprediction ever happens.
package security

import (
	"fmt"
	"strings"

	"specinterference/internal/cache"
	"specinterference/internal/emu"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/uarch"
)

// RunSpec describes one program-under-scheme whose executions are compared.
type RunSpec struct {
	// Prog runs on core 0.
	Prog *isa.Program
	// Policy is the scheme both runs execute under (the zero value is the
	// unprotected baseline). Each run builds its own machine, so no scheme
	// state crosses from E into NoSpec.
	Policy uarch.SpecPolicy
	// Config is the machine configuration (cache geometry etc.).
	Config uarch.Config
	// SetupMem initializes memory contents (applied to the emulator and
	// to both machine runs). Optional.
	SetupMem func(*mem.Memory)
	// InitRegs presets architectural registers (emulator and both runs).
	InitRegs map[isa.Reg]int64
	// PrepareSystem applies cache priming and predictor training — the
	// attacker-controlled environment. It must not touch memory contents
	// or registers. Optional.
	PrepareSystem func(*uarch.System) error
}

// maxCycles bounds each of Check's two machine runs.
const maxCycles = 2_000_000

// Report is the checker outcome. The two equality notions form a
// hierarchy that maps directly onto the paper's narrative:
//
//   - SetHolds (multiset equality, order ignored) is what invisible
//     speculation schemes actually provide: no access appears or
//     disappears because of mis-speculation. The unprotected baseline
//     fails even this (the classic Spectre footprint).
//   - Holds (sequence equality) is the full §5.1 definition. Invisible
//     speculation schemes fail it — mis-speculation still shifts the
//     timing of bound-to-retire work and with it the ORDER of visible
//     accesses — which is precisely the residual channel the paper's
//     interference attacks weaponize. Only the prediction-free ideal
//     fence satisfies it on this machine.
type Report struct {
	// Holds is true when C(E) == C(NoSpec(E)) as sequences (§5.1).
	Holds bool
	// SetHolds is true when the multisets of visible accesses match.
	SetHolds bool
	// E and NoSpec are the rendered access patterns.
	E, NoSpec []string
	// FirstDiff is the index of the first difference (-1 when equal).
	FirstDiff int
	// Mispredicts counts mispredictions in the E run (0 means the check
	// was vacuous: E had no mis-speculation to hide).
	Mispredicts uint64
}

// PatternOf renders a visible-access log as the timing-free C(E) sequence.
func PatternOf(log []cache.VisibleAccess) []string {
	out := make([]string, len(log))
	for i, a := range log {
		out[i] = fmt.Sprintf("c%d:%s:%#x", a.Core, a.Kind, a.Line)
	}
	return out
}

// Check runs E (real predictor) and NoSpec(E) (oracle) and compares their
// visible LLC access patterns.
func Check(spec RunSpec) (*Report, error) {
	if spec.Prog == nil {
		return nil, fmt.Errorf("security: nil program")
	}
	if err := spec.Prog.Validate(); err != nil {
		return nil, err
	}

	// Golden run: record the dynamic branch outcome sequence.
	goldenMem := mem.New()
	if spec.SetupMem != nil {
		spec.SetupMem(goldenMem)
	}
	e := emu.New(spec.Prog, goldenMem)
	var outcomes branchOutcomes
	e.Hook = &outcomes
	for r, v := range spec.InitRegs {
		e.SetReg(r, v)
	}
	if _, err := e.Run(); err != nil {
		return nil, fmt.Errorf("security: golden run: %w", err)
	}

	runOnce := func(oracle []bool) ([]string, uint64, error) {
		m := mem.New()
		if spec.SetupMem != nil {
			spec.SetupMem(m)
		}
		sys, err := uarch.NewSystem(spec.Config, m)
		if err != nil {
			return nil, 0, err
		}
		if spec.PrepareSystem != nil {
			if err := spec.PrepareSystem(sys); err != nil {
				return nil, 0, err
			}
		}
		if err := sys.LoadProgram(0, spec.Prog, spec.Policy); err != nil {
			return nil, 0, err
		}
		for r, v := range spec.InitRegs {
			sys.Core(0).SetReg(r, v)
		}
		sys.Core(0).SetBranchOracle(oracle) // nil for E: the real predictor
		sys.Hierarchy().ResetLog()
		if err := sys.Run(maxCycles); err != nil {
			return nil, 0, err
		}
		_, mispredicts := sys.Core(0).Predictor().Stats()
		return PatternOf(sys.Hierarchy().Log()), mispredicts, nil
	}

	ePattern, mispredicts, err := runOnce(nil)
	if err != nil {
		return nil, fmt.Errorf("security: E run: %w", err)
	}
	nsPattern, _, err := runOnce(outcomes)
	if err != nil {
		return nil, fmt.Errorf("security: NoSpec run: %w", err)
	}

	rep := &Report{E: ePattern, NoSpec: nsPattern, FirstDiff: -1, Mispredicts: mispredicts}
	rep.Holds = len(ePattern) == len(nsPattern)
	n := len(ePattern)
	if len(nsPattern) < n {
		n = len(nsPattern)
	}
	for i := 0; i < n; i++ {
		if ePattern[i] != nsPattern[i] {
			rep.Holds = false
			rep.FirstDiff = i
			break
		}
	}
	if rep.FirstDiff == -1 && len(ePattern) != len(nsPattern) {
		rep.FirstDiff = n
	}
	counts := map[string]int{}
	for _, a := range ePattern {
		counts[a]++
	}
	for _, a := range nsPattern {
		counts[a]--
	}
	rep.SetHolds = true
	for _, c := range counts {
		if c != 0 {
			rep.SetHolds = false
			break
		}
	}
	return rep, nil
}

// branchOutcomes is an emulator hook that collects a run's conditional
// branch outcomes in order: the perfect oracle of NoSpec(E).
type branchOutcomes []bool

func (o *branchOutcomes) Observe(s emu.Step) {
	if s.Inst.IsCondBranch() {
		*o = append(*o, s.Taken)
	}
}

// Diff renders a short human-readable explanation of a failed check.
func (r *Report) Diff() string {
	if r.Holds {
		return "C(E) = C(NoSpec(E))"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "C(E) has %d visible accesses, C(NoSpec(E)) has %d; first difference at %d\n",
		len(r.E), len(r.NoSpec), r.FirstDiff)
	show := func(name string, p []string) {
		lo := r.FirstDiff - 2
		if lo < 0 {
			lo = 0
		}
		hi := r.FirstDiff + 3
		if hi > len(p) {
			hi = len(p)
		}
		fmt.Fprintf(&b, "  %s:", name)
		for i := lo; i < hi; i++ {
			fmt.Fprintf(&b, " [%d]%s", i, p[i])
		}
		b.WriteString("\n")
	}
	show("E      ", r.E)
	show("NoSpec ", r.NoSpec)
	return b.String()
}
