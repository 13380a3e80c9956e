package detect

import (
	"errors"
	"testing"

	"specinterference/internal/asm"
	"specinterference/internal/emu"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
)

// Toy-program addresses: the secret word, a cold line table the gadgets
// index with the secret, and a warm "reference" line.
const (
	toySecret = int64(0x2000)
	toyTable  = int64(0x4000)
	toyRef    = int64(0x6000)
)

// toyEnvs returns the two self-composition environments for the toy
// programs: identical registers (R2 = secret address, R1 = table base,
// R9 = reference address), memory differing only in the secret word, and
// the secret line warm so the wrong-path secret load resolves fast.
func toyEnvs() [2]Env {
	var envs [2]Env
	for s := 0; s < 2; s++ {
		envs[s] = Env{
			Mem:      map[int64]int64{toySecret: int64(s)},
			WarmData: map[int64]bool{mem.LineAddr(toySecret): true},
		}
		envs[s].Regs[isa.R1] = toyTable
		envs[s].Regs[isa.R2] = toySecret
		envs[s].Regs[isa.R9] = toyRef
	}
	return envs
}

// toyPrologue emits the shared skeleton: a never-taken branch to "wrong"
// (R4=1 < R3=0 is false), so the architectural path halts immediately and
// the detector explores the taken direction as the wrong path.
func toyPrologue(b *asm.Builder) {
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, 1)
	b.Blt(isa.R4, isa.R3, "wrong")
	b.Halt()
	b.Label("wrong")
	b.Load(isa.R5, isa.R2, 0) // the secret, fast (warm line)
}

// analyzeToy runs the detector on a toy program under the unprotected
// scheme with small thresholds so toy-sized pressure trips them.
func analyzeToy(t *testing.T, build func(b *asm.Builder)) *Report {
	t.Helper()
	b := asm.NewBuilder()
	toyPrologue(b)
	build(b)
	b.Halt()
	params := DefaultParams()
	params.RSSize = 8 // toy-sized reservation station
	rep, err := Analyze(b.MustBuild(), uarch.SpecPolicy{}, toyEnvs(), params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ArchDiff {
		t.Fatal("toy program's architectural trace depends on the secret")
	}
	return rep
}

// TestTaintPrimitives drives each pressure/visibility rule with one
// leaking and one non-leaking toy program, so a regression in a single
// signal is pinned to its rule rather than surfacing as a Table 1-wide
// concordance failure.
func TestTaintPrimitives(t *testing.T) {
	secretGate := func(b *asm.Builder, label string) {
		// Skips the gadget body when the secret is 0 (R5 < R4=1).
		b.Blt(isa.R5, isa.R4, label)
	}
	cases := []struct {
		name   string
		build  func(b *asm.Builder)
		signal func(r *Report) bool
		want   bool
	}{
		{
			name: "npeu-leak",
			build: func(b *asm.Builder) {
				secretGate(b, "skip")
				for i := 0; i < 3; i++ {
					b.Sqrt(isa.R6, isa.R4)
				}
				b.Label("skip")
			},
			signal: (*Report).SqrtDiff,
			want:   true,
		},
		{
			name: "npeu-noleak",
			build: func(b *asm.Builder) {
				for i := 0; i < 3; i++ { // same sqrts under both secrets
					b.Sqrt(isa.R6, isa.R4)
				}
			},
			signal: (*Report).SqrtDiff,
			want:   false,
		},
		{
			name: "npeu-latency-leak",
			build: func(b *asm.Builder) {
				// Same sqrt count, but the operand arrives slow under
				// secret 1 only (cold table line) — readiness differs.
				b.ShlI(isa.R6, isa.R5, 6)
				b.Add(isa.R6, isa.R6, isa.R1)
				b.Load(isa.R7, isa.R6, 0)
				b.Sqrt(isa.R8, isa.R7)
			},
			signal: (*Report).SqrtDiff,
			want:   false, // both table lines are cold: same counts, same readiness
		},
		{
			name: "mshr-leak",
			build: func(b *asm.Builder) {
				secretGate(b, "skip")
				for i := int64(0); i < 4; i++ { // 4 cold lines = all L1D MSHRs
					b.Load(isa.R6, isa.R1, i*mem.LineBytes)
				}
				b.Label("skip")
			},
			signal: (*Report).MSHRDiff,
			want:   true,
		},
		{
			name: "mshr-noleak",
			build: func(b *asm.Builder) {
				for i := int64(0); i < 4; i++ { // unconditional: same miss set
					b.Load(isa.R6, isa.R1, i*mem.LineBytes)
				}
			},
			signal: (*Report).MSHRDiff,
			want:   false,
		},
		{
			name: "mshr-below-threshold",
			build: func(b *asm.Builder) {
				secretGate(b, "skip")
				for i := int64(0); i < 3; i++ { // differs, but never exhausts
					b.Load(isa.R6, isa.R1, i*mem.LineBytes)
				}
				b.Label("skip")
			},
			signal: (*Report).MSHRDiff,
			want:   false,
		},
		{
			name: "rs-leak",
			build: func(b *asm.Builder) {
				// Only secret 1 reaches the slow load and the flood of
				// dependent adds that park on its value.
				secretGate(b, "skip")
				b.Load(isa.R7, isa.R1, 0) // cold line: slow
				for i := 0; i < 10; i++ {
					b.Add(isa.R8, isa.R7, isa.R7)
				}
				b.Label("skip")
			},
			signal: (*Report).RSDiff,
			want:   true,
		},
		{
			name: "rs-noleak",
			build: func(b *asm.Builder) {
				for i := 0; i < 10; i++ { // fast operands: nothing parks
					b.Add(isa.R8, isa.R4, isa.R4)
				}
			},
			signal: (*Report).RSDiff,
			want:   false,
		},
		{
			name: "footprint-leak",
			build: func(b *asm.Builder) {
				b.ShlI(isa.R6, isa.R5, 6) // classic transient footprint:
				b.Add(isa.R6, isa.R6, isa.R1)
				b.Load(isa.R7, isa.R6, 0) // visibly touches table[secret*64]
			},
			signal: func(r *Report) bool {
				return r.FootprintDiff([2]int64{mem.LineAddr(toyTable), mem.LineAddr(toyTable + mem.LineBytes)})
			},
			want: true,
		},
		{
			name: "footprint-noleak",
			build: func(b *asm.Builder) {
				b.Load(isa.R7, isa.R1, 0) // fixed address
			},
			signal: func(r *Report) bool {
				return r.FootprintDiff([2]int64{mem.LineAddr(toyTable), mem.LineAddr(toyTable + mem.LineBytes)})
			},
			want: false,
		},
		{
			name: "absorb-reference",
			build: func(b *asm.Builder) {
				b.Load(isa.R6, isa.R9, 0) // caches the reference line under BOTH secrets
			},
			signal: func(r *Report) bool { return r.Absorbed(mem.LineAddr(toyRef)) },
			want:   true,
		},
		{
			name: "absorb-one-side-only",
			build: func(b *asm.Builder) {
				secretGate(b, "skip")
				b.Load(isa.R6, isa.R9, 0) // only secret 1 reaches the reference
				b.Label("skip")
			},
			signal: func(r *Report) bool { return r.Absorbed(mem.LineAddr(toyRef)) },
			want:   false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := analyzeToy(t, tc.build)
			if len(rep.Pairs) == 0 {
				t.Fatal("no speculative window explored")
			}
			if got := tc.signal(rep); got != tc.want {
				t.Errorf("signal = %v, want %v\nwindows: %+v", got, tc.want, rep.Pairs)
			}
		})
	}

	// rs-leak's premise: the secret-0 table slot is warm, the secret-1
	// slot cold. Re-run it with that environment to pin the latency rule.
	t.Run("rs-leak-warm-slot", func(t *testing.T) {
		b := asm.NewBuilder()
		toyPrologue(b)
		b.ShlI(isa.R6, isa.R5, 6)
		b.Add(isa.R6, isa.R6, isa.R1)
		b.Load(isa.R7, isa.R6, 0)
		for i := 0; i < 10; i++ {
			b.Add(isa.R8, isa.R7, isa.R7)
		}
		b.Halt()
		envs := toyEnvs()
		for s := 0; s < 2; s++ {
			envs[s].WarmData[mem.LineAddr(toyTable)] = true // secret-0 slot fast
		}
		params := DefaultParams()
		params.RSSize = 8
		rep, err := Analyze(b.MustBuild(), uarch.SpecPolicy{}, envs, params)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.RSDiff() {
			t.Errorf("RSDiff = false, want true\nwindows: %+v", rep.Pairs)
		}
	})
}

// TestWrongPathMemory pins what a speculative window reads: memory at
// the word granularity of mem.Memory, holding the correct-path stores
// made before its branch, and a correct-path rdcycle destination holding
// the emulator's instruction count. Each wrong path puts a value in R5
// and then visibly touches table[R5*64], so the table line in Visible
// names the value it read.
func TestWrongPathMemory(t *testing.T) {
	cases := []struct {
		name          string
		before, after func(b *asm.Builder) // the correct path around the branch
		wrong         func(b *asm.Builder) // the wrong path up to setting R5
		mem           map[int64]int64      // initial memory beyond toyEnvs
		want          int64                // the word the wrong path reads
	}{
		{
			name:   "stores-before-branch-only",
			before: func(b *asm.Builder) { b.MovI(isa.R6, 1).Store(isa.R2, 8, isa.R6) },
			after:  func(b *asm.Builder) { b.MovI(isa.R6, 2).Store(isa.R2, 8, isa.R6) },
			wrong:  func(b *asm.Builder) { b.Load(isa.R5, isa.R2, 8) },
			want:   1,
		},
		{
			name:   "correct-path-store-word",
			before: func(b *asm.Builder) { b.MovI(isa.R6, 2).Store(isa.R2, 4, isa.R6) },
			wrong:  func(b *asm.Builder) { b.Load(isa.R5, isa.R2, 0) },
			want:   2,
		},
		{
			name:  "wrong-path-store-word",
			wrong: func(b *asm.Builder) { b.MovI(isa.R6, 3).Store(isa.R2, 4, isa.R6).Load(isa.R5, isa.R2, 0) },
			want:  3,
		},
		{
			name:  "initial-image-word",
			mem:   map[int64]int64{toySecret + 12: 3},
			wrong: func(b *asm.Builder) { b.Load(isa.R5, isa.R2, 8) },
			want:  3,
		},
		{
			name:   "rdcycle-instruction-count",
			before: func(b *asm.Builder) { b.RdCycle(isa.R6) }, // the third instruction
			wrong:  func(b *asm.Builder) { b.Mov(isa.R5, isa.R6) },
			want:   3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.NewBuilder()
			b.MovI(isa.R3, 0)
			b.MovI(isa.R4, 1)
			if tc.before != nil {
				tc.before(b)
			}
			b.Blt(isa.R4, isa.R3, "wrong") // never taken
			if tc.after != nil {
				tc.after(b)
			}
			b.Halt()
			b.Label("wrong")
			tc.wrong(b)
			b.ShlI(isa.R6, isa.R5, 6)
			b.Add(isa.R6, isa.R6, isa.R1)
			b.Load(isa.R7, isa.R6, 0)
			b.Halt()
			envs := toyEnvs()
			for s := range envs {
				for a, v := range tc.mem {
					envs[s].Mem[a] = v
				}
			}
			rep, err := Analyze(b.MustBuild(), uarch.SpecPolicy{}, envs, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			if rep.ArchDiff || len(rep.Pairs) != 1 {
				t.Fatalf("ArchDiff = %v with %d windows, want false with 1", rep.ArchDiff, len(rep.Pairs))
			}
			want := map[int64]bool{toyTable + tc.want*mem.LineBytes: true}
			for s, w := range rep.Pairs[0].W {
				delete(w.Visible, mem.LineAddr(toySecret)) // loaded by most wrong paths here
				if !sameLineSet(w.Visible, want) {
					t.Errorf("secret %d: visible lines besides the secret's %v, want %v", s, w.Visible, want)
				}
			}
		})
	}
}

// TestWrongPathStoresStayInWindow: a wrong path's stores are its own. The
// first window stores to memory; the second must still read the word the
// correct path stored between the two branches.
func TestWrongPathStoresStayInWindow(t *testing.T) {
	b := asm.NewBuilder()
	b.MovI(isa.R3, 0)
	b.MovI(isa.R4, 1)
	b.MovI(isa.R6, 1).Store(isa.R2, 8, isa.R6)
	b.Blt(isa.R4, isa.R3, "wrong1") // never taken
	b.MovI(isa.R6, 2).Store(isa.R2, 8, isa.R6)
	b.Blt(isa.R4, isa.R3, "wrong2") // never taken
	b.Halt()
	b.Label("wrong1")
	b.MovI(isa.R6, 3).Store(isa.R2, 16, isa.R6)
	b.Halt()
	b.Label("wrong2")
	b.Load(isa.R5, isa.R2, 8) // 2
	b.ShlI(isa.R6, isa.R5, 6)
	b.Add(isa.R6, isa.R6, isa.R1)
	b.Load(isa.R7, isa.R6, 0)
	b.Halt()
	rep, err := Analyze(b.MustBuild(), uarch.SpecPolicy{}, toyEnvs(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) != 2 {
		t.Fatalf("%d windows, want 2", len(rep.Pairs))
	}
	want := map[int64]bool{mem.LineAddr(toySecret): true, toyTable + 2*mem.LineBytes: true}
	for s, w := range rep.Pairs[1].W {
		if !sameLineSet(w.Visible, want) {
			t.Errorf("secret %d: second window's visible lines %v, want %v", s, w.Visible, want)
		}
	}
}

// TestPolicyGates pins the two policy gates that short-circuit every
// pressure signal: fences keep wrong-path work from issuing, and the
// ideal fences never even fetch a wrong path.
func TestPolicyGates(t *testing.T) {
	buildNPEU := func() *isa.Program {
		b := asm.NewBuilder()
		toyPrologue(b)
		for i := 0; i < 3; i++ {
			b.Sqrt(isa.R6, isa.R5)
		}
		b.Halt()
		return b.MustBuild()
	}

	t.Run("fence-no-issue", func(t *testing.T) {
		policy, err := schemes.ByName("fence-spectre")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(buildNPEU(), policy, toyEnvs(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Policy.CanIssue(false) {
			t.Error("fence-spectre: CanIssue(false) = true")
		}
		for _, p := range rep.Pairs {
			for s := 0; s < 2; s++ {
				if p.W[s].SqrtIssued != 0 || len(p.W[s].Visible) != 0 || len(p.W[s].MissLines) != 0 {
					t.Errorf("secret %d: wrong-path work issued under a fence: %+v", s, p.W[s])
				}
			}
		}
	})

	t.Run("ideal-fence-no-fetch", func(t *testing.T) {
		policy, err := schemes.ByName("fence-spectre-ideal")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(buildNPEU(), policy, toyEnvs(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Policy.StallFetchInShadow {
			t.Error("fence-spectre-ideal: StallFetchInShadow = false")
		}
		if len(rep.Pairs) != 0 {
			t.Errorf("explored %d windows under stalled fetch", len(rep.Pairs))
		}
	})
}

// TestAnalyzeArchDiff: a program whose CORRECT path depends on the secret
// is flagged as architecturally divergent, not given a speculative
// verdict.
func TestAnalyzeArchDiff(t *testing.T) {
	b := asm.NewBuilder()
	b.Load(isa.R5, isa.R2, 0)
	b.ShlI(isa.R6, isa.R5, 6)
	b.Add(isa.R6, isa.R6, isa.R1)
	b.Load(isa.R7, isa.R6, 0) // architectural secret-indexed load
	b.Halt()
	rep, err := Analyze(b.MustBuild(), uarch.SpecPolicy{}, toyEnvs(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ArchDiff {
		t.Error("ArchDiff = false for a secret-dependent architectural trace")
	}
}

// TestAnalyzeStepLimit: a non-halting program surfaces the emulator's
// step-limit error (satellite: pinned emu.Machine semantics) instead of a
// verdict.
func TestAnalyzeStepLimit(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	_, err := Analyze(b.MustBuild(), uarch.SpecPolicy{}, toyEnvs(), DefaultParams())
	if !errors.Is(err, emu.ErrStepLimit) {
		t.Errorf("err = %v, want errors.Is(_, emu.ErrStepLimit)", err)
	}
}
