package core

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/emu"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/uarch"
)

var update = flag.Bool("update", false, "rewrite the committed fuzz seed corpus and the generated-program CoreStats golden")

// fuzzDataBase is the data window fuzz programs may touch; the emulator
// and the pipeline are compared word-for-word over [base, base+window).
const (
	fuzzDataBase   = 0x10000
	fuzzDataWindow = 0x1000
	fuzzMaxInsts   = 256
)

// fuzzPool is the register set fuzz instructions read and write. R1 (the
// data base), R20 and R21 (loop counters) stay outside the pool, so every
// load and store hits the data window and every loop is bounded no matter
// what the pool registers hold.
var fuzzPool = []isa.Reg{
	isa.R3, isa.R4, isa.R5, isa.R6, isa.R7, isa.R8, isa.R9,
	isa.R10, isa.R11, isa.R12, isa.R13, isa.R14, isa.R15,
}

// buildFuzzProgram decodes arbitrary bytes into a valid, terminating
// program: three bytes per instruction (selector, register byte, operand
// byte), destination and source registers drawn from fuzzPool, memory
// operands confined to the data window off R1, and control flow limited
// to forward skips and counter-bounded loops — so any input halts in a
// bounded number of dynamic instructions. RdCycle is deliberately not
// generated: the emulator defines it as an instruction count and the
// pipeline as a cycle count, so it diverges by design.
func buildFuzzProgram(data []byte) *isa.Program {
	b := asm.NewBuilder()
	b.MovI(isa.R1, fuzzDataBase)
	pool := func(x byte) isa.Reg { return fuzzPool[int(x)%len(fuzzPool)] }
	label := 0
	n := 0
	for i := 0; i+2 < len(data) && n < fuzzMaxInsts; i, n = i+3, n+1 {
		sel, a, c := data[i]%16, data[i+1], data[i+2]
		dst, s1, s2 := pool(a&0x0f), pool(a>>4), pool(c)
		switch sel {
		case 0:
			b.MovI(dst, int64(c))
		case 1:
			b.Add(dst, s1, s2)
		case 2:
			b.Sub(dst, s1, s2)
		case 3:
			b.And(dst, s1, s2)
		case 4:
			b.Or(dst, s1, s2)
		case 5:
			b.Xor(dst, s1, s2)
		case 6:
			b.Mul(dst, s1, s2)
		case 7:
			b.Div(dst, s1, s2)
		case 8:
			b.AddI(dst, s1, int64(int8(c)))
		case 9:
			b.MulI(dst, s1, int64(c%7)+1)
		case 10:
			b.ShlI(dst, s1, int64(c%64))
		case 11:
			b.ShrI(dst, s1, int64(c%64))
		case 12:
			b.Sqrt(dst, s1)
		case 13:
			b.Load(dst, isa.R1, int64(c)*8)
		case 14:
			b.Store(isa.R1, int64(c)*8, pool(a&0x0f))
		case 15:
			l := "l" + strconv.Itoa(label)
			label++
			if c < 128 { // forward skip over one instruction
				b.Blt(pool(a&0x0f), pool(a>>4), l)
				b.AddI(pool(c), pool(c), 1)
				b.Label(l)
			} else { // counter-bounded loop
				b.MovI(isa.R20, 0)
				b.MovI(isa.R21, int64(c%6)+2)
				b.Label(l)
				b.AddI(pool(a&0x0f), pool(a&0x0f), 2)
				b.AddI(isa.R20, isa.R20, 1)
				b.Blt(isa.R20, isa.R21, l)
			}
			n += 2 // branches expand to 3 or 6 instructions
		}
	}
	b.Halt()
	return b.MustBuild()
}

// encodeSeedInst maps one victim-program instruction to the decoder bytes
// of the closest buildFuzzProgram form, preserving its opcode (and thus
// the gadgets' sqrt chains, load bursts and add floods) while the decoder
// re-bases operands into the valid fuzz domain.
func encodeSeedInst(in isa.Inst) []byte {
	a := byte(in.Dst)&0x0f | byte(in.Src1)<<4
	c := byte(in.Imm)
	sel := byte(0)
	switch in.Op {
	case isa.Add:
		sel, c = 1, byte(in.Src2)
	case isa.Sub:
		sel, c = 2, byte(in.Src2)
	case isa.And:
		sel, c = 3, byte(in.Src2)
	case isa.Or:
		sel, c = 4, byte(in.Src2)
	case isa.Xor:
		sel, c = 5, byte(in.Src2)
	case isa.Mul:
		sel, c = 6, byte(in.Src2)
	case isa.Div:
		sel, c = 7, byte(in.Src2)
	case isa.AddI:
		sel = 8
	case isa.MulI:
		sel = 9
	case isa.ShlI:
		sel = 10
	case isa.ShrI:
		sel = 11
	case isa.Sqrt:
		sel = 12
	case isa.Load:
		sel = 13
	case isa.Store:
		sel, a = 14, byte(in.Src2)&0x0f
	case isa.Beq, isa.Bne, isa.Blt, isa.Bge:
		sel, c = 15, byte(in.Src2) // c < 128: forward skip
	case isa.Jmp:
		sel, c = 15, 200 // bounded loop stands in for the spin jump
	default: // Nop, MovI, Flush, Fence, RdCycle, Halt
		sel = 0
	}
	return []byte{sel, a, c}
}

// fuzzSeeds returns the committed seed corpus: the three Table 1 gadget
// programs re-encoded into the fuzz input format, so the fuzzer starts
// from the instruction mixes the experiments actually run.
func fuzzSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	l := DefaultLayout(AttackConfig().Cache)
	p := DefaultVictimParams()
	seeds := map[string][]byte{}
	for _, gc := range []struct {
		name string
		g    Gadget
		ord  Ordering
	}{
		{"seed-npeu", GadgetNPEU, OrderVDVD},
		{"seed-mshr", GadgetMSHR, OrderVDVD},
		{"seed-rs", GadgetRS, OrderVIAD},
	} {
		v, err := BuildVictim(gc.g, gc.ord, l, p)
		if err != nil {
			t.Fatal(err)
		}
		var data []byte
		for _, in := range v.Prog.Insts {
			if in.Op == isa.Halt {
				break
			}
			data = append(data, encodeSeedInst(in)...)
		}
		seeds[gc.name] = data
	}
	return seeds
}

// corpusDir is where the seed corpus lives; `go test` feeds every file in
// it to FuzzArchEquivalence on ordinary (non-fuzzing) runs.
const corpusDir = "testdata/fuzz/FuzzArchEquivalence"

// TestFuzzCorpusCurrent pins the committed seed corpus to the generated
// victim programs (regenerate with -update after intentional gadget
// changes).
func TestFuzzCorpusCurrent(t *testing.T) {
	for name, data := range fuzzSeeds(t) {
		path := filepath.Join(corpusDir, name)
		want := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
		if *update {
			if err := os.MkdirAll(corpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s is stale (regenerate with -update)", path)
		}
	}
}

// FuzzArchEquivalence cross-checks the OoO pipeline against the in-order
// emulator: under the unprotected scheme, any valid program must retire
// the same architectural state — registers, data-window memory and
// dynamic instruction count — regardless of speculation, reordering and
// cache behaviour. A divergence here is an oracle bug: either machine
// could silently corrupt every Table 1 verdict built on top of it.
func FuzzArchEquivalence(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := buildFuzzProgram(data)

		goldenMem := mem.New()
		e := emu.New(p, goldenMem)
		want, err := e.Run()
		if err != nil {
			t.Fatalf("emulator: %v\n%s", err, p)
		}

		pipeMem := mem.New()
		sys, err := uarch.NewSystem(AttackConfig(), pipeMem)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadProgram(0, p, uarch.SpecPolicy{}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(2_000_000); err != nil {
			t.Fatalf("pipeline: %v\n%s", err, p)
		}
		c := sys.Core(0)
		if !c.Halted() {
			t.Fatalf("pipeline did not halt\n%s", p)
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if c.Reg(r) != want.Regs[r] {
				t.Fatalf("%s = %d, emulator says %d\n%s", r, c.Reg(r), want.Regs[r], p)
			}
		}
		for off := int64(0); off < fuzzDataWindow; off += 8 {
			a := int64(fuzzDataBase) + off
			if pipeMem.Read64(a) != goldenMem.Read64(a) {
				t.Fatalf("mem[%#x] = %d, emulator says %d\n%s",
					a, pipeMem.Read64(a), goldenMem.Read64(a), p)
			}
		}
		if got := c.Stats().Retired; got != int64(want.InstCount) {
			t.Fatalf("retired %d instructions, emulator says %d\n%s", got, want.InstCount, p)
		}
	})
}
