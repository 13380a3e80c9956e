package detect

import (
	"fmt"
	"slices"

	"specinterference/internal/emu"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/uarch"
)

// maxExploredBranches caps how many dynamic branch visits open a
// speculative window; later branches still execute architecturally.
const maxExploredBranches = 64

// Window summarizes one speculative (wrong-path) window: everything the
// policy let the wrong path do before the bounding squash.
type Window struct {
	// BranchPC is the conditional branch whose misprediction opens the
	// window.
	BranchPC int
	// SqrtIssued counts wrong-path sqrt operations whose operands were
	// available (they reach the non-pipelined unit before the squash).
	SqrtIssued int
	// SqrtFast counts issued sqrts with no slow (miss-latency) operand —
	// the ones that contend with the victim's f-chain early.
	SqrtFast int
	// MissLines is the set of lines brought in flight by non-delayed
	// wrong-path loads that missed (each occupies an L1D MSHR).
	MissLines map[int64]bool
	// Parked counts wrong-path instructions waiting on slow or
	// unavailable operands — reservation-station occupancy.
	Parked int
	// Visible is the set of data lines touched by issued ActVisible
	// loads.
	Visible map[int64]bool
	// Fetched is the set of instruction lines the wrong-path frontend
	// fetched.
	Fetched map[int64]bool
}

// WindowPair is the same branch visit explored under both secrets.
type WindowPair struct {
	BranchPC int
	W        [2]Window
}

// Report is the outcome of one self-composed analysis.
type Report struct {
	// Policy is the analysed scheme: the verdict rules read its shadow
	// model, its instruction-fetch mode and its issue and fetch gates.
	Policy uarch.SpecPolicy
	Params Params
	// ArchDiff is true when the two architectural (correct-path)
	// executions themselves diverge — branch outcomes or load addresses
	// differ by secret. The program then leaks without any
	// microarchitecture, and the speculative analysis is moot.
	ArchDiff bool
	// Pairs are the per-branch-visit speculative windows, paired across
	// secrets (empty when the policy stalls fetch in shadow).
	Pairs []WindowPair
}

// SqrtDiff reports differential non-pipelined-unit pressure: some window
// pair issues a different number of sqrts, or a different number of
// immediately-ready sqrts, under the two secrets.
func (r *Report) SqrtDiff() bool {
	for _, p := range r.Pairs {
		if p.W[0].SqrtIssued != p.W[1].SqrtIssued || p.W[0].SqrtFast != p.W[1].SqrtFast {
			return true
		}
	}
	return false
}

// MSHRDiff reports differential MSHR pressure: some window pair has
// secret-dependent miss-line sets and one side covers every L1D MSHR.
func (r *Report) MSHRDiff() bool {
	for _, p := range r.Pairs {
		a, b := p.W[0].MissLines, p.W[1].MissLines
		if len(a) < r.Params.DMSHRs && len(b) < r.Params.DMSHRs {
			continue
		}
		if !sameLineSet(a, b) {
			return true
		}
	}
	return false
}

// RSDiff reports differential reservation-station pressure: the parked
// count exceeds the RS capacity under exactly one secret.
func (r *Report) RSDiff() bool {
	for _, p := range r.Pairs {
		if (p.W[0].Parked >= r.Params.RSSize) != (p.W[1].Parked >= r.Params.RSSize) {
			return true
		}
	}
	return false
}

// FootprintDiff reports whether the wrong path's visible data footprint
// on the probe lines differs by secret — a direct transient leak.
func (r *Report) FootprintDiff(lines [2]int64) bool {
	for _, p := range r.Pairs {
		for _, l := range lines {
			if p.W[0].Visible[l] != p.W[1].Visible[l] {
				return true
			}
		}
	}
	return false
}

// Absorbed reports whether every window pair's wrong path visibly caches
// line under BOTH secrets (and at least one window exists): the line's
// later architectural access then hits and emits no LLC event — the
// VD-VD reference clock disappears.
func (r *Report) Absorbed(line int64) bool {
	if len(r.Pairs) == 0 {
		return false
	}
	for _, p := range r.Pairs {
		if !p.W[0].Visible[line] || !p.W[1].Visible[line] {
			return false
		}
	}
	return true
}

// AnyVisibleLoad reports whether any wrong-path load executed visibly
// under either secret.
func (r *Report) AnyVisibleLoad() bool {
	for _, p := range r.Pairs {
		if len(p.W[0].Visible) > 0 || len(p.W[1].Visible) > 0 {
			return true
		}
	}
	return false
}

// TargetFetchedWhenDrained reports whether the secret whose reservation
// stations stay below capacity (the drained side) fetches line in its
// wrong-path window — the G_IRS presence channel.
func (r *Report) TargetFetchedWhenDrained(line int64) bool {
	for _, p := range r.Pairs {
		for s := 0; s < 2; s++ {
			if p.W[s].Parked < r.Params.RSSize && p.W[s].Fetched[line] {
				return true
			}
		}
	}
	return false
}

func sameLineSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if !b[l] {
			return false
		}
	}
	return true
}

// event is one load or conditional branch of a correct path.
type event struct {
	pc    int
	addr  int64 // a load's address
	taken bool  // a branch's outcome
}

// snapshot is the state at a conditional branch: where the speculative
// window down its other direction starts.
type snapshot struct {
	pc    int
	taken bool
	regs  [isa.NumRegs]int64
	slow  [isa.NumRegs]bool
	// stores counts the correct-path stores before the branch.
	stores int
}

// wordWrite is one store, by word address.
type wordWrite struct {
	word, val int64
}

// correctPath is one secret's architectural execution as the emulator's
// Hook reports it.
type correctPath struct {
	// image is the initial memory by word address. Memory at a branch is
	// image overlaid with the first snapshot.stores entries of stores.
	image  map[int64]int64
	stores []wordWrite
	// present holds the L1-resident lines: the warm ones plus every line
	// the path has accessed.
	present map[int64]bool
	// slow is each register's latency class: whether its value depends on
	// a load that missed present.
	slow [isa.NumRegs]bool
	// trace lists the loads and branches in order; ArchDiff compares the
	// two secrets' traces.
	trace []event
	// snaps are the states at the first maxExploredBranches branches.
	snaps []snapshot
}

// Analyze self-composes the program under policy across the two secret
// environments and returns the paired speculative windows. Each secret's
// correct path runs once on the architectural emulator (internal/emu),
// whose Hook yields the operand latency classes, the present lines and
// the branch snapshots. A correct-path rdcycle destination therefore
// holds the emulator's instruction count when a window starts, the same
// under both secrets whenever ArchDiff is false. Analyze fails, rather
// than returning a verdict-bearing report, only on an invalid program or
// a correct path that does not halt (emu.ErrStepLimit is wrapped and can
// be tested with errors.Is).
func Analyze(prog *isa.Program, policy uarch.SpecPolicy, envs [2]Env, params Params) (*Report, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	rep := &Report{Policy: policy, Params: params}

	var paths [2]correctPath
	m := mem.New()
	for s := range paths {
		if err := paths[s].run(prog, envs[s], m); err != nil {
			return nil, fmt.Errorf("detect: secret %d: %w", s, err)
		}
	}
	rep.ArchDiff = !slices.Equal(paths[0].trace, paths[1].trace)

	if policy.StallFetchInShadow {
		return rep, nil // no wrong path is ever fetched
	}
	for i := range min(len(paths[0].snaps), len(paths[1].snaps)) {
		pc := paths[0].snaps[i].pc
		if paths[1].snaps[i].pc != pc {
			break // control already diverged (ArchDiff is set)
		}
		rep.Pairs = append(rep.Pairs, WindowPair{
			BranchPC: pc,
			W: [2]Window{
				explore(prog, policy, envs[0], &paths[0], i, params),
				explore(prog, policy, envs[1], &paths[1], i, params),
			},
		})
	}
	return rep, nil
}

// run executes the program on the architectural emulator over m, which
// it resets first, and records what the windows start from. A
// non-halting run surfaces as an error (wrapping emu.ErrStepLimit), never
// as data.
func (p *correctPath) run(prog *isa.Program, env Env, m *mem.Memory) error {
	p.image = make(map[int64]int64, len(env.Mem))
	p.present = make(map[int64]bool, len(env.WarmData))
	m.Reset()
	for a, v := range env.Mem {
		m.Write64(a, v)
		p.image[mem.WordAddr(a)] = v
	}
	for l := range env.WarmData {
		p.present[l] = true
	}
	e := emu.New(prog, m)
	e.Hook = p
	for r, v := range env.Regs {
		e.SetReg(isa.Reg(r), v)
	}
	_, err := e.Run()
	return err
}

// Observe is the emulator Hook: it classes each written register fast or
// slow, logs loads, stores and branches, and snapshots each branch.
func (p *correctPath) Observe(s emu.Step) {
	in := s.Inst
	switch {
	case in.Op == isa.Load:
		line := mem.LineAddr(s.Addr)
		p.slow[in.Dst] = !p.present[line]
		p.present[line] = true // architectural loads fill visibly
		p.trace = append(p.trace, event{pc: s.PC, addr: s.Addr})
	case in.Op == isa.Store:
		p.present[mem.LineAddr(s.Addr)] = true
		p.stores = append(p.stores, wordWrite{mem.WordAddr(s.Addr), s.Regs[in.Src2]})
	case in.IsCondBranch():
		if len(p.snaps) < maxExploredBranches {
			p.snaps = append(p.snaps, snapshot{pc: s.PC, taken: s.Taken, regs: *s.Regs, slow: p.slow, stores: len(p.stores)})
		}
		p.trace = append(p.trace, event{pc: s.PC, taken: s.Taken})
	case in.HasDst():
		p.slow[in.Dst] = anySource(&p.slow, in)
	}
}

// anySource reports whether flags is set for any source register of in.
func anySource(flags *[isa.NumRegs]bool, in isa.Inst) bool {
	srcs, n := in.Uses()
	for _, r := range srcs[:n] {
		if flags[r] {
			return true
		}
	}
	return false
}

// explore walks the anti-architectural direction of one branch for up to
// ROBSize fetched instructions, applying the policy's issue and load
// rules. The wrong-path "present" model is deliberately the PLAN's warm
// L1 lines plus wrong-path refills only: correct-path fills are the
// in-flight state the window races against, not guaranteed hits.
func explore(prog *isa.Program, policy uarch.SpecPolicy, env Env, path *correctPath, i int, params Params) Window {
	snap := &path.snaps[i]
	w := Window{
		BranchPC:  snap.pc,
		MissLines: map[int64]bool{},
		Visible:   map[int64]bool{},
		Fetched:   map[int64]bool{},
	}
	regs, slow := snap.regs, snap.slow
	var unavail [isa.NumRegs]bool
	// stores starts as the correct-path stores before the branch; the
	// wrong path appends its own (Clip keeps them out of path.stores).
	stores := slices.Clip(path.stores[:snap.stores])
	present := map[int64]bool{}
	for l := range env.WarmData {
		present[l] = true
	}

	// The mispredicted direction is the one the architecture did NOT take.
	pc := snap.pc + 1
	if !snap.taken {
		pc = prog.Insts[snap.pc].Target
	}

	// read returns the word containing addr, as mem.Memory does: the
	// newest store to it, else the initial image.
	read := func(addr int64) int64 {
		word := mem.WordAddr(addr)
		for j := len(stores) - 1; j >= 0; j-- {
			if stores[j].word == word {
				return stores[j].val
			}
		}
		return path.image[word]
	}

	for fetched := 0; fetched < params.ROBSize; fetched++ {
		if pc < 0 || pc >= prog.Len() {
			break
		}
		in := prog.Insts[pc]
		w.Fetched[mem.LineAddr(prog.InstAddr(pc))] = true
		next := pc + 1

		switch in.Op {
		case isa.Halt, isa.Fence:
			return w
		case isa.Jmp:
			pc = in.Target
			continue
		case isa.Nop, isa.Flush:
			pc = next
			continue
		}

		anyUnavail, anySlow := anySource(&unavail, in), anySource(&slow, in)
		if anyUnavail || anySlow {
			w.Parked++ // waits in the RS for its operands
		}
		issued := policy.CanIssue(false) && !anyUnavail

		switch {
		case in.IsCondBranch():
			if !issued {
				return w // direction unknowable, stop the window
			}
			if emu.BranchTaken(in.Op, regs[in.Src1], regs[in.Src2]) {
				next = in.Target
			}
		case in.Op == isa.Load:
			if !issued {
				unavail[in.Dst] = true
				break
			}
			addr := regs[in.Src1] + in.Imm
			line := mem.LineAddr(addr)
			hit := present[line]
			act := policy.DecideLoad(hit)
			if act == uarch.ActDelay {
				unavail[in.Dst] = true
				break
			}
			regs[in.Dst], slow[in.Dst], unavail[in.Dst] = read(addr), !hit, false
			if !hit {
				w.MissLines[line] = true
			}
			if act == uarch.ActVisible {
				w.Visible[line] = true
				present[line] = true // visible fills serve later wrong-path hits
			}
		case in.Op == isa.Store:
			if issued {
				stores = append(stores, wordWrite{mem.WordAddr(regs[in.Src1] + in.Imm), regs[in.Src2]})
			}
		case in.Op == isa.RdCycle:
			// Timing-dependent value: treat the destination as unknowable.
			unavail[in.Dst] = true
		default: // register-writing ALU ops
			if !issued {
				if in.HasDst() {
					unavail[in.Dst] = true
				}
				break
			}
			if in.Op == isa.Sqrt {
				w.SqrtIssued++
				if !anySlow {
					w.SqrtFast++
				}
			}
			if in.HasDst() {
				regs[in.Dst] = emu.ALU(in, regs[in.Src1], regs[in.Src2])
				slow[in.Dst], unavail[in.Dst] = anySlow, false
			}
		}
		pc = next
	}
	return w
}
