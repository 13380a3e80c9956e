package isa

import "fmt"

// Program is an executable instruction sequence. Instruction addresses are
// indices into Insts; the code is mapped at CodeBase in the (shared) address
// space so that instruction fetch exercises the I-cache. Each instruction
// occupies InstBytes bytes.
type Program struct {
	Insts []Inst
	// Symbols maps label names to instruction indices. Optional; used for
	// diagnostics and by the assembler.
	Symbols map[string]int
	// CodeBase is the byte address of instruction 0. It must be line-aligned
	// for deterministic I-cache behaviour.
	CodeBase int64
}

// InstBytes is the size of one instruction in the address space. Eight
// instructions share a 64-byte cache line.
const InstBytes = 8

// DefaultCodeBase is where programs are mapped unless overridden. It is
// far from the default data regions used by tests and gadget builders.
const DefaultCodeBase = 0x40_0000

// NewProgram wraps an instruction slice in a Program mapped at
// DefaultCodeBase.
func NewProgram(insts []Inst) *Program {
	return &Program{Insts: insts, Symbols: map[string]int{}, CodeBase: DefaultCodeBase}
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Insts) }

// InstAddr returns the byte address of instruction pc.
func (p *Program) InstAddr(pc int) int64 { return p.CodeBase + int64(pc)*InstBytes }

// Validate checks every instruction and branch target.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("isa: empty program")
	}
	if p.CodeBase < 0 {
		return fmt.Errorf("isa: negative code base %d", p.CodeBase)
	}
	for i, in := range p.Insts {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("isa: inst %d (%s): %w", i, in, err)
		}
		if in.IsBranch() {
			if in.Target < 0 || in.Target >= len(p.Insts) {
				return fmt.Errorf("isa: inst %d (%s): branch target %d out of range [0,%d)",
					i, in, in.Target, len(p.Insts))
			}
		}
	}
	return nil
}

// String renders the whole program with instruction indices and labels.
func (p *Program) String() string {
	labelAt := map[int]string{}
	for name, pc := range p.Symbols {
		if prev, ok := labelAt[pc]; !ok || name < prev {
			labelAt[pc] = name
		}
	}
	out := ""
	for i, in := range p.Insts {
		if lbl, ok := labelAt[i]; ok {
			out += lbl + ":\n"
		}
		out += fmt.Sprintf("%4d:  %s\n", i, in)
	}
	return out
}
