package detect

import (
	"fmt"

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

// branchVisit is one architectural conditional-branch execution plus the
// state snapshot a speculative window starts from.
type branchVisit struct {
	pc    int
	taken bool
	// snapshot of the architectural state at the branch (nil when past
	// the exploration cap).
	regs *[isa.NumRegs]int64
	slow *[isa.NumRegs]bool
	mem  map[int64]int64
}

// archTrace is one correct-path execution.
type archTrace struct {
	branches []branchVisit
	loads    []int64
	regs     [isa.NumRegs]int64
}

// Analyze self-composes the program under policy across the two secret
// environments and returns the paired speculative windows. It fails —
// rather than returning a verdict-bearing report — when either
// architectural execution does not halt (emu.ErrStepLimit is wrapped and
// can be tested with errors.Is) or when the internal stepper disagrees
// with the emu golden model.
func Analyze(prog *isa.Program, policy uarch.SpecPolicy, envs [2]Env, params Params) (*Report, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	rep := &Report{Policy: policy, Params: params}

	var traces [2]archTrace
	for s := 0; s < 2; s++ {
		oracle, err := runOracle(prog, envs[s])
		if err != nil {
			return nil, fmt.Errorf("detect: secret %d: %w", s, err)
		}
		tr, err := runArch(prog, envs[s])
		if err != nil {
			return nil, fmt.Errorf("detect: secret %d: %w", s, err)
		}
		if err := crossCheck(prog, tr, oracle); err != nil {
			return nil, fmt.Errorf("detect: secret %d: %w", s, err)
		}
		traces[s] = tr
	}

	rep.ArchDiff = archDiverges(traces[0], traces[1])

	if policy.StallFetchInShadow {
		return rep, nil // no wrong path is ever fetched
	}
	n := len(traces[0].branches)
	if len(traces[1].branches) < n {
		n = len(traces[1].branches)
	}
	for i := 0; i < n; i++ {
		b0, b1 := traces[0].branches[i], traces[1].branches[i]
		if b0.regs == nil || b1.regs == nil {
			break // past the exploration cap
		}
		if b0.pc != b1.pc {
			break // control already diverged (ArchDiff is set)
		}
		rep.Pairs = append(rep.Pairs, WindowPair{
			BranchPC: b0.pc,
			W: [2]Window{
				explore(prog, policy, envs[0], b0, params),
				explore(prog, policy, envs[1], b1, params),
			},
		})
	}
	return rep, nil
}

// runOracle executes the program on the architectural emulator, the
// golden model the internal stepper is checked against. A non-halting
// run surfaces as an error (wrapping emu.ErrStepLimit), never as data.
func runOracle(prog *isa.Program, env Env) (*emu.Result, error) {
	m := mem.New()
	for a, v := range env.Mem {
		m.Write64(a, v)
	}
	e := emu.New(prog, m)
	e.RecordBranches = true
	e.RecordLoads = true
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if env.Regs[r] != 0 {
			e.SetReg(r, env.Regs[r])
		}
	}
	res, err := e.Run()
	if err != nil {
		return nil, fmt.Errorf("architectural oracle: %w", err)
	}
	return res, nil
}

// runArch is the detector's own correct-path stepper: architecturally
// identical to emu (cross-checked), but additionally tracking the L1
// fast/slow latency class of every register and snapshotting state at
// conditional branches for window exploration.
func runArch(prog *isa.Program, env Env) (archTrace, error) {
	var tr archTrace
	regs := env.Regs
	var slow [isa.NumRegs]bool
	memory := map[int64]int64{}
	for a, v := range env.Mem {
		memory[a] = v
	}
	present := map[int64]bool{}
	for l := range env.WarmData {
		present[l] = true
	}

	pc := 0
	for steps := 0; steps < emu.DefaultMaxSteps; steps++ {
		if pc < 0 || pc >= prog.Len() {
			return tr, fmt.Errorf("stepper: pc %d out of range", pc)
		}
		in := prog.Insts[pc]
		next := pc + 1
		switch in.Op {
		case isa.Halt:
			tr.regs = regs
			return tr, nil
		case isa.Nop, isa.Fence, isa.Flush:
		case isa.MovI:
			regs[in.Dst], slow[in.Dst] = in.Imm, false
		case isa.Mov:
			regs[in.Dst], slow[in.Dst] = regs[in.Src1], slow[in.Src1]
		case isa.Load:
			addr := regs[in.Src1] + in.Imm
			line := mem.LineAddr(addr)
			regs[in.Dst], slow[in.Dst] = memory[addr], !present[line]
			present[line] = true // architectural loads fill visibly
			tr.loads = append(tr.loads, addr)
		case isa.Store:
			addr := regs[in.Src1] + in.Imm
			memory[addr] = regs[in.Src2]
			present[mem.LineAddr(addr)] = true
		case isa.RdCycle:
			// The stepper has no clock; zero keeps it deterministic, and
			// the emu cross-check tolerates the one register RdCycle
			// defines differently (see crossCheck).
			regs[in.Dst], slow[in.Dst] = 0, false
		case isa.Beq, isa.Bne, isa.Blt, isa.Bge:
			taken := emu.BranchTaken(in.Op, regs[in.Src1], regs[in.Src2])
			v := branchVisit{pc: pc, taken: taken}
			if len(tr.branches) < maxExploredBranches {
				r, sl := regs, slow
				mm := make(map[int64]int64, len(memory))
				for a, val := range memory {
					mm[a] = val
				}
				v.regs, v.slow, v.mem = &r, &sl, mm
			}
			tr.branches = append(tr.branches, v)
			if taken {
				next = in.Target
			}
		case isa.Jmp:
			next = in.Target
		default:
			regs[in.Dst] = emu.ALU(in, regs[in.Src1], regs[in.Src2])
			srcs, ns := in.Uses()
			sl := false
			for i := 0; i < ns; i++ {
				sl = sl || slow[srcs[i]]
			}
			slow[in.Dst] = sl
		}
		pc = next
	}
	return tr, fmt.Errorf("stepper: %w", emu.ErrStepLimit)
}

// crossCheck pins the stepper to the emu golden model: branch streams and
// final registers must agree (RdCycle destinations excepted — the two
// models define the counter differently, which is also why the fuzz
// generator excludes it).
func crossCheck(prog *isa.Program, tr archTrace, oracle *emu.Result) error {
	if len(tr.branches) != len(oracle.Branches) {
		return fmt.Errorf("stepper diverged: %d branches vs oracle %d",
			len(tr.branches), len(oracle.Branches))
	}
	for i, b := range tr.branches {
		if b.pc != oracle.Branches[i].PC || b.taken != oracle.Branches[i].Taken {
			return fmt.Errorf("stepper diverged at branch %d: pc %d taken %v vs oracle pc %d taken %v",
				i, b.pc, b.taken, oracle.Branches[i].PC, oracle.Branches[i].Taken)
		}
	}
	if len(tr.loads) != len(oracle.LoadAddrs) {
		return fmt.Errorf("stepper diverged: %d loads vs oracle %d", len(tr.loads), len(oracle.LoadAddrs))
	}
	for i, a := range tr.loads {
		if a != oracle.LoadAddrs[i] {
			return fmt.Errorf("stepper diverged at load %d: %#x vs oracle %#x", i, a, oracle.LoadAddrs[i])
		}
	}
	var skip [isa.NumRegs]bool
	for _, in := range prog.Insts {
		if in.Op == isa.RdCycle {
			skip[in.Dst] = true
		}
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if !skip[r] && tr.regs[r] != oracle.Regs[r] {
			return fmt.Errorf("stepper diverged: %s = %d vs oracle %d", r, tr.regs[r], oracle.Regs[r])
		}
	}
	return nil
}

// archDiverges reports whether the two correct-path executions are
// distinguishable: different branch outcomes or different load addresses.
func archDiverges(a, b archTrace) bool {
	if len(a.branches) != len(b.branches) || len(a.loads) != len(b.loads) {
		return true
	}
	for i := range a.branches {
		if a.branches[i].pc != b.branches[i].pc || a.branches[i].taken != b.branches[i].taken {
			return true
		}
	}
	for i := range a.loads {
		if a.loads[i] != b.loads[i] {
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
func explore(prog *isa.Program, policy uarch.SpecPolicy, env Env, at branchVisit, params Params) Window {
	w := Window{
		BranchPC:  at.pc,
		MissLines: map[int64]bool{},
		Visible:   map[int64]bool{},
		Fetched:   map[int64]bool{},
	}
	regs := *at.regs
	slow := *at.slow
	var unavail [isa.NumRegs]bool
	storeBuf := map[int64]int64{}
	present := map[int64]bool{}
	for l := range env.WarmData {
		present[l] = true
	}

	// The mispredicted direction is the one the architecture did NOT take.
	pc := at.pc + 1
	if !at.taken {
		pc = prog.Insts[at.pc].Target
	}

	read := func(addr int64) int64 {
		if v, ok := storeBuf[addr]; ok {
			return v
		}
		return at.mem[addr]
	}
	srcState := func(in isa.Inst) (anyUnavail, anySlow bool) {
		srcs, n := in.Uses()
		for i := 0; i < n; i++ {
			anyUnavail = anyUnavail || unavail[srcs[i]]
			anySlow = anySlow || slow[srcs[i]]
		}
		return
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

		anyUnavail, anySlow := srcState(in)
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
				storeBuf[regs[in.Src1]+in.Imm] = regs[in.Src2]
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
