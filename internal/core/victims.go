package core

import (
	"fmt"

	"specinterference/internal/asm"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// Victim is a generated sender program plus the metadata the harness needs
// to train, trace and decode it.
type Victim struct {
	Prog *isa.Program
	// BranchPC is the mispredicted bounds-check branch (mistraining target).
	BranchPC int
	// APC and BPC are the PCs of the victim load A and reference load B.
	APC, BPC int
	// TargetLine is the instruction line whose fetch encodes the secret:
	// the correct-path continuation for VI-AD NPEU/MSHR victims, or the
	// wrong-path target function for the GIRS victim. Zero if unused.
	TargetLine int64
	// plans are the per-secret initial-state plans (see PrimePlan),
	// precomputed by BuildVictim so the pooled trial loop and the static
	// leak detector read one priming ground truth without per-trial
	// allocation.
	plans [2]*PrimePlan
}

// VictimParams tunes the gadget/target chain lengths. The defaults are
// calibrated for AttackConfig's latencies (L1 4, L2 12, LLC 40, Mem 150).
type VictimParams struct {
	// FChain is the length of the dependent sqrt chain f(z) that generates
	// A's address (the interference target).
	FChain int
	// GChain is the length of the dependent mul chain g(z) that generates
	// B's address; it is sized to complete between A's interfered and
	// non-interfered times (G > F in the paper's notation).
	GChain int
	// GadgetSqrts is the number of independent sqrts f'(x) in the NPEU
	// interference gadget.
	GadgetSqrts int
	// MSHRLoads is M, the number of gadget loads in the MSHR gadget
	// (set to the L1D MSHR count).
	MSHRLoads int
	// RSAdds is the number of transmitter-dependent adds in the GIRS
	// gadget (must exceed RS size + fetch buffer).
	RSAdds int
	// ZChain is the short address-generation chain of the MSHR victim.
	ZChain int
	// MSHRRefChain is the mul-chain length in front of the MSHR victim's
	// reference load (shorter than GChain: it must land inside the MSHR
	// exhaustion window rather than the EU-contention window).
	MSHRRefChain int
}

// DefaultVictimParams returns chain lengths calibrated for AttackConfig.
// FChain is long enough that the interference delay (~24 cycles per f step
// versus ~13 uncontended) pushes A's issue past the safety floor that
// TSO-style schemes impose, which the paper's "All" entries for VD-AD
// require.
func DefaultVictimParams() VictimParams {
	return VictimParams{
		FChain:       10,
		GChain:       35,
		GadgetSqrts:  40,
		MSHRLoads:    4,
		RSAdds:       140,
		ZChain:       2,
		MSHRRefChain: 20,
	}
}

// BuildVictim generates the sender program for the given gadget and
// ordering against the layout, including the per-secret PrimePlans the
// trial loop and the static leak detector both consume.
func BuildVictim(g Gadget, ord Ordering, l Layout, p VictimParams) (*Victim, error) {
	var v *Victim
	var err error
	switch g {
	case GadgetNPEU:
		if ord == OrderVIAD {
			v, err = buildNPEUorMSHRVIAD(g, l, p)
		} else {
			v, err = buildNPEUVictim(l, p)
		}
	case GadgetMSHR:
		if ord == OrderVIAD {
			v, err = buildNPEUorMSHRVIAD(g, l, p)
		} else {
			v, err = buildMSHRVictim(l, p)
		}
	case GadgetRS:
		if ord != OrderVIAD {
			return nil, fmt.Errorf("core: GIRS only supports the VI-AD ordering (Table 1)")
		}
		v, err = buildRSVictim(l, p)
	default:
		return nil, fmt.Errorf("core: unknown gadget %d", int(g))
	}
	if err != nil {
		return nil, err
	}
	v.plans = [2]*PrimePlan{
		buildPrimePlan(g, l, p, v, 0),
		buildPrimePlan(g, l, p, v, 1),
	}
	return v, nil
}

// zChainMuls sizes the z computation: the paper's "z = ... // takes Z
// cycles". It is an arithmetic chain, not a load, so no load-protection
// scheme can defer it: the interference window must open for every scheme.
const zChainMuls = 12

// emitZChain emits the z computation into isa.R11. Its value is irrelevant
// (the address chains mask it to zero); only its ~Z-cycle latency matters:
// long enough for the gadget's transmitter to return first, short enough
// that the interference window fits before the branch resolves.
func emitZChain(b *asm.Builder) {
	b.MulI(isa.R11, RegIdx, 1)
	for i := 1; i < zChainMuls; i++ {
		b.MulI(isa.R11, isa.R11, 1)
	}
}

// emitAccess emits the access load, which reads the secret at T[i], and
// leaves secret*64 in isa.R24.
func emitAccess(b *asm.Builder) {
	b.ShlI(isa.R22, RegIdx, 3)
	b.Add(isa.R22, isa.R22, RegT)
	b.Load(isa.R23, isa.R22, 0) // access load: secret = T[i]
	b.ShlI(isa.R24, isa.R23, 6) // secret * 64
}

// emitAccessAndTransmitter emits the access load and the transmitter load
// of S[secret*64], returning the register holding the transmitter result.
func emitAccessAndTransmitter(b *asm.Builder) isa.Reg {
	emitAccess(b)
	b.Add(isa.R24, isa.R24, RegS)
	b.Load(isa.R25, isa.R24, 0) // transmitter: S[secret*64]
	return isa.R25
}

// emitMSHRLoads emits the G_MSHR gadget's M loads at GadgetBase +
// secret*64*k, after emitAccess: one line when secret=0, M distinct lines
// when secret=1.
func emitMSHRLoads(b *asm.Builder, l Layout, p VictimParams) {
	for k := 0; k < p.MSHRLoads; k++ {
		b.MulI(isa.R26, isa.R24, int64(k))
		b.AddI(isa.R26, isa.R26, l.GadgetBase)
		b.Load(isa.R27, isa.R26, 0)
	}
}

// buildNPEUVictim is the Figure 6 sender: interference target f(z)→load A,
// reference chain g(z)→load B, and an NPEU gadget in the branch shadow.
func buildNPEUVictim(l Layout, p VictimParams) (*Victim, error) {
	b := asm.NewBuilder()
	b.Load(isa.R10, RegN, 0) // N: flushed line — the speculation window
	emitZChain(b)            // z: a Z-cycle arithmetic computation
	// f(z): dependent sqrt chain on the non-pipelined unit.
	b.Sqrt(isa.R12, isa.R11)
	for i := 1; i < p.FChain; i++ {
		b.Sqrt(isa.R12, isa.R12)
	}
	b.And(isa.R13, isa.R12, RegZero)
	b.Add(isa.R13, isa.R13, RegABase)
	apc := b.PC()
	b.Load(isa.R14, isa.R13, 0) // victim load A
	// g(z): dependent mul chain on a different (pipelined) unit.
	b.MulI(isa.R15, isa.R11, 1)
	for i := 1; i < p.GChain; i++ {
		b.MulI(isa.R15, isa.R15, 1)
	}
	b.And(isa.R16, isa.R15, RegZero)
	b.Add(isa.R16, isa.R16, RegBBase)
	bpc := b.PC()
	b.Load(isa.R17, isa.R16, 0) // reference load B
	branchPC := b.PC()
	b.Blt(RegIdx, isa.R10, "gadget") // mistrained taken; actually i >= N
	b.Jmp("done")
	b.Label("gadget")
	x := emitAccessAndTransmitter(b)
	// f'(x): independent sqrts, all data-dependent on the transmitter.
	for i := 0; i < p.GadgetSqrts; i++ {
		b.Sqrt(isa.R26, x)
	}
	b.Label("spin")
	b.Jmp("spin") // keep wrong-path fetch away from the done block
	b.Label("done")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Victim{Prog: prog, BranchPC: branchPC, APC: apc, BPC: bpc}, nil
}

// buildMSHRVictim is the Figure 4 sender: a short address chain for victim
// load A, a mul-chain reference load B that coalesces with the gadget's
// first line (so MSHR exhaustion cannot delay it), and M gadget loads whose
// addresses spread over M lines only when the secret is 1.
func buildMSHRVictim(l Layout, p VictimParams) (*Victim, error) {
	b := asm.NewBuilder()
	b.Load(isa.R10, RegN, 0)
	emitZChain(b)
	// Short f(z): A's address is ready soon after z, but late enough that
	// the gadget loads have issued first.
	b.Sqrt(isa.R12, isa.R11)
	for i := 1; i < p.ZChain; i++ {
		b.Sqrt(isa.R12, isa.R12)
	}
	b.And(isa.R13, isa.R12, RegZero)
	b.Add(isa.R13, isa.R13, RegABase)
	apc := b.PC()
	b.Load(isa.R14, isa.R13, 0) // victim load A: needs an MSHR
	// Reference B: mul chain, then a load of the gadget's k=0 line, which
	// coalesces with the outstanding gadget miss instead of needing a free
	// MSHR — its issue time is therefore unaffected by the gadget.
	b.MulI(isa.R15, isa.R11, 1)
	for i := 1; i < p.MSHRRefChain; i++ {
		b.MulI(isa.R15, isa.R15, 1)
	}
	b.And(isa.R16, isa.R15, RegZero)
	b.AddI(isa.R16, isa.R16, l.GadgetBase)
	bpc := b.PC()
	b.Load(isa.R17, isa.R16, 0) // reference load B (line GadgetBase)
	branchPC := b.PC()
	b.Blt(RegIdx, isa.R10, "gadget")
	b.Jmp("done")
	b.Label("gadget")
	emitAccess(b)
	emitMSHRLoads(b, l, p)
	b.Label("spin")
	b.Jmp("spin")
	b.Label("done")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Victim{Prog: prog, BranchPC: branchPC, APC: apc, BPC: bpc}, nil
}

// buildNPEUorMSHRVIAD is the VI-AD variant (§3.3.1): the branch condition
// depends on the gadget-delayed load A, so the interference delays branch
// resolution and with it the (visible, correct-path) fetch of the `done`
// block, which is placed on its own, initially-flushed instruction line.
func buildNPEUorMSHRVIAD(g Gadget, l Layout, p VictimParams) (*Victim, error) {
	b := asm.NewBuilder()
	emitZChain(b) // z
	chain := p.FChain
	if g == GadgetMSHR {
		chain = p.ZChain
	}
	b.Sqrt(isa.R12, isa.R11)
	for i := 1; i < chain; i++ {
		b.Sqrt(isa.R12, isa.R12)
	}
	b.And(isa.R13, isa.R12, RegZero)
	b.Add(isa.R13, isa.R13, RegABase)
	apc := b.PC()
	b.Load(isa.R14, isa.R13, 0) // A: the gadget-delayed load
	branchPC := b.PC()
	b.Blt(RegIdx, isa.R14, "gadget") // condition depends on A (A holds 0)
	b.Jmp("done")
	b.Label("gadget")
	if g == GadgetNPEU {
		x := emitAccessAndTransmitter(b)
		for i := 0; i < p.GadgetSqrts; i++ {
			b.Sqrt(isa.R26, x)
		}
	} else {
		emitAccess(b)
		emitMSHRLoads(b, l, p)
	}
	b.Label("spin")
	b.Jmp("spin")
	padToLine(b)
	b.Label("done")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	done := prog.Symbols["done"]
	return &Victim{
		Prog: prog, BranchPC: branchPC, APC: apc,
		TargetLine: mem.LineAddr(prog.InstAddr(done)),
	}, nil
}

// buildRSVictim is the Figure 5 / §4.3 sender: a transmitter load followed
// by enough transmitter-dependent adds to overflow the reservation
// stations, then a jump to a target function on its own instruction line.
// The whole gadget sits on the mis-speculated path, so the target line is
// fetched only when the transmitter hits (secret = 0) and the frontend is
// not back-throttled.
func buildRSVictim(l Layout, p VictimParams) (*Victim, error) {
	b := asm.NewBuilder()
	b.Load(isa.R10, RegN, 0) // N: flushed — speculation window
	branchPC := b.PC()
	b.Blt(RegIdx, isa.R10, "gadget")
	b.Jmp("done")
	b.Label("gadget")
	x := emitAccessAndTransmitter(b)
	// Congest the RS: adds that cannot issue until the transmitter returns.
	for i := 0; i < p.RSAdds; i++ {
		b.Add(isa.R26, x, x)
	}
	b.Jmp("targetfn")
	padToLine(b)
	b.Label("targetfn") // the shared-function line the receiver watches
	b.Halt()
	padToLine(b) // keep the correct-path done block off the target line
	b.Label("done")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	tfn := prog.Symbols["targetfn"]
	return &Victim{
		Prog: prog, BranchPC: branchPC,
		TargetLine: mem.LineAddr(prog.InstAddr(tfn)),
	}, nil
}

// padToLine emits nops until the next instruction starts a fresh cache
// line, so a labelled block gets a line of its own.
func padToLine(b *asm.Builder) {
	instsPerLine := int(mem.LineBytes / isa.InstBytes)
	for b.PC()%instsPerLine != 0 {
		b.Nop()
	}
}
