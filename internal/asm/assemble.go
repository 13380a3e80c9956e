package asm

import (
	"fmt"
	"strings"

	"specinterference/internal/isa"
)

// Assemble parses assembler text into a program, one instruction per
// line in the syntax isa.Inst.String prints (see isa.ParseInst):
//
//	start:
//	    movi r1, 64          ; comments run to end of line
//	    load r2, 8(r1)
//	    blt  r2, r1, start   # labels or numeric @targets
//	    halt
//
// Assemble itself handles only lines, comments and labels. Both ';' and
// '#' start comments. Branch targets may be label names or absolute
// instruction indices written as @N.
func Assemble(src string) (*isa.Program, error) {
	b := NewBuilder()
	for i, line := range strings.Split(src, "\n") {
		lineNo := i + 1
		if c := strings.IndexAny(line, ";#"); c >= 0 {
			line = line[:c]
		}
		line = strings.TrimSpace(line)
		// A line may carry leading "label:" definitions before an instruction.
		for {
			label, rest, ok := strings.Cut(line, ":")
			if !ok {
				break
			}
			label = strings.TrimSpace(label)
			if !isIdent(label) {
				return nil, fmt.Errorf("asm: line %d: bad label %q", lineNo, label)
			}
			if _, dup := b.symbols[label]; dup {
				return nil, fmt.Errorf("asm: line %d: duplicate label %q", lineNo, label)
			}
			b.Label(label)
			line = strings.TrimSpace(rest)
		}
		if line == "" {
			continue
		}
		in, target, err := isa.ParseInst(line)
		switch {
		case err != nil:
			return nil, fmt.Errorf("asm: line %d: %w", lineNo, err)
		case target == "":
			b.Emit(in)
		case !isIdent(target):
			return nil, fmt.Errorf("asm: line %d: bad branch target %q", lineNo, target)
		default:
			b.emitTo(in, target)
		}
	}
	return b.Build()
}

// MustAssemble is Assemble that panics on error, for tests and examples with
// literal source.
func MustAssemble(src string) *isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
