// Package asm provides two ways to construct isa.Programs: a fluent Go
// Builder used by the attack-gadget generators, and a small text assembler
// (see Assemble) for hand-written programs in examples and tests. The
// instruction syntax is isa's: Assemble adds only lines, comments and
// labels, and resolves label targets through the Builder.
package asm

import (
	"fmt"

	"specinterference/internal/isa"
)

// Builder incrementally constructs a program. Branches may reference labels
// that are defined later; Build resolves them. Methods panic on programmer
// error (invalid registers) — the builder is a code-generation tool, not an
// input parser.
type Builder struct {
	insts    []isa.Inst
	symbols  map[string]int
	fixups   []fixup
	codeBase int64
}

type fixup struct {
	instIdx int
	label   string
}

// NewBuilder returns an empty Builder mapping code at isa.DefaultCodeBase.
func NewBuilder() *Builder {
	return &Builder{symbols: map[string]int{}, codeBase: isa.DefaultCodeBase}
}

// SetCodeBase overrides where the program is mapped.
func (b *Builder) SetCodeBase(base int64) *Builder {
	b.codeBase = base
	return b
}

// PC returns the index of the next instruction to be emitted.
func (b *Builder) PC() int { return len(b.insts) }

// Label defines name at the current PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.symbols[name]; dup {
		panic(fmt.Sprintf("asm: duplicate label %q", name))
	}
	b.symbols[name] = len(b.insts)
	return b
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) *Builder {
	if err := in.Validate(); err != nil {
		panic(fmt.Sprintf("asm: %v", err))
	}
	b.insts = append(b.insts, in)
	return b
}

// Nop emits a nop.
func (b *Builder) Nop() *Builder { return b.Emit(isa.Inst{Op: isa.Nop}) }

// Halt emits a halt.
func (b *Builder) Halt() *Builder { return b.Emit(isa.Inst{Op: isa.Halt}) }

// Fence emits a speculation barrier.
func (b *Builder) Fence() *Builder { return b.Emit(isa.Inst{Op: isa.Fence}) }

// MovI emits dst = imm.
func (b *Builder) MovI(dst isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.MovI, Dst: dst, Imm: imm})
}

// Mov emits dst = src.
func (b *Builder) Mov(dst, src isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.Mov, Dst: dst, Src1: src})
}

// Add emits dst = s1 + s2.
func (b *Builder) Add(dst, s1, s2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.Add, Dst: dst, Src1: s1, Src2: s2})
}

// AddI emits dst = s1 + imm.
func (b *Builder) AddI(dst, s1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.AddI, Dst: dst, Src1: s1, Imm: imm})
}

// Sub emits dst = s1 - s2.
func (b *Builder) Sub(dst, s1, s2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.Sub, Dst: dst, Src1: s1, Src2: s2})
}

// And emits dst = s1 & s2.
func (b *Builder) And(dst, s1, s2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.And, Dst: dst, Src1: s1, Src2: s2})
}

// Or emits dst = s1 | s2.
func (b *Builder) Or(dst, s1, s2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.Or, Dst: dst, Src1: s1, Src2: s2})
}

// Xor emits dst = s1 ^ s2.
func (b *Builder) Xor(dst, s1, s2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.Xor, Dst: dst, Src1: s1, Src2: s2})
}

// ShlI emits dst = s1 << imm.
func (b *Builder) ShlI(dst, s1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.ShlI, Dst: dst, Src1: s1, Imm: imm})
}

// ShrI emits dst = s1 >> imm (logical).
func (b *Builder) ShrI(dst, s1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.ShrI, Dst: dst, Src1: s1, Imm: imm})
}

// Mul emits dst = s1 * s2.
func (b *Builder) Mul(dst, s1, s2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.Mul, Dst: dst, Src1: s1, Src2: s2})
}

// MulI emits dst = s1 * imm.
func (b *Builder) MulI(dst, s1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.MulI, Dst: dst, Src1: s1, Imm: imm})
}

// Div emits dst = s1 / s2.
func (b *Builder) Div(dst, s1, s2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.Div, Dst: dst, Src1: s1, Src2: s2})
}

// Sqrt emits dst = isqrt(|s1|). Non-pipelined long-latency op.
func (b *Builder) Sqrt(dst, s1 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.Sqrt, Dst: dst, Src1: s1})
}

// Load emits dst = Mem[base + off].
func (b *Builder) Load(dst, base isa.Reg, off int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.Load, Dst: dst, Src1: base, Imm: off})
}

// Store emits Mem[base + off] = val.
func (b *Builder) Store(base isa.Reg, off int64, val isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.Store, Src1: base, Src2: val, Imm: off})
}

// Flush emits clflush of the line containing base + off.
func (b *Builder) Flush(base isa.Reg, off int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.Flush, Src1: base, Imm: off})
}

// RdCycle emits dst = cycle counter.
func (b *Builder) RdCycle(dst isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.RdCycle, Dst: dst})
}

// emitTo emits in and leaves its Target for Build to set to label's PC.
func (b *Builder) emitTo(in isa.Inst, label string) *Builder {
	b.fixups = append(b.fixups, fixup{instIdx: len(b.insts), label: label})
	return b.Emit(in)
}

// Beq emits a branch to label when s1 == s2.
func (b *Builder) Beq(s1, s2 isa.Reg, label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.Beq, Src1: s1, Src2: s2}, label)
}

// Bne emits a branch to label when s1 != s2.
func (b *Builder) Bne(s1, s2 isa.Reg, label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.Bne, Src1: s1, Src2: s2}, label)
}

// Blt emits a branch to label when s1 < s2.
func (b *Builder) Blt(s1, s2 isa.Reg, label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.Blt, Src1: s1, Src2: s2}, label)
}

// Bge emits a branch to label when s1 >= s2.
func (b *Builder) Bge(s1, s2 isa.Reg, label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.Bge, Src1: s1, Src2: s2}, label)
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.Jmp}, label)
}

// Build resolves label fixups and returns a validated program.
func (b *Builder) Build() (*isa.Program, error) {
	for _, f := range b.fixups {
		pc, ok := b.symbols[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		b.insts[f.instIdx].Target = pc
	}
	p := &isa.Program{Insts: b.insts, Symbols: b.symbols, CodeBase: b.codeBase}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for generator code whose output
// is a program construction bug, not an input error.
func (b *Builder) MustBuild() *isa.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
