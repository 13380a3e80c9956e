// Package workload provides the synthetic SPEC-like kernels used to
// evaluate defense overhead. They stand in for the SPEC CPU2017 runs on
// gem5 behind the paper's Figure 12: each kernel stresses a different
// pipeline bottleneck, which is what a fence defense's cost depends on,
// so the defenses' cost spreads the way the paper's per-benchmark bars do:
//
//	pointer_chase — dependent-load latency (mcf-like)
//	stream        — sequential loads/stores (lbm-like)
//	compute       — dense mul/sqrt arithmetic (namd-like)
//	branchy       — data-dependent branches (perlbench/xalancbmk-like)
//	hash          — computed addresses, mixed ALU/memory (xz-like)
//	mixed         — a loop combining all of the above
package workload

import (
	"fmt"

	"specinterference/internal/asm"
	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// Workload is one synthetic kernel.
type Workload struct {
	// Name identifies the kernel in reports.
	Name string
	// Build generates the program for a given scale factor (loop
	// iterations) and a memory initializer.
	Build func(iters int) (*isa.Program, func(*mem.Memory))
}

// dataBase is where workload data lives.
const dataBase = 0x0200_0000

// All returns every kernel.
func All() []Workload {
	return []Workload{
		{Name: "pointer_chase", Build: buildPointerChase},
		{Name: "stream", Build: buildStream},
		{Name: "compute", Build: buildCompute},
		{Name: "branchy", Build: buildBranchy},
		{Name: "hash", Build: buildHash},
		{Name: "mixed", Build: buildMixed},
	}
}

// ByName returns the named kernel.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown kernel %q", name)
}

// buildPointerChase traverses a pseudo-randomly permuted linked list:
// serial dependent loads, memory-latency bound.
func buildPointerChase(iters int) (*isa.Program, func(*mem.Memory)) {
	const nodes = 256
	b := asm.NewBuilder()
	b.MovI(isa.R1, dataBase) // current pointer
	b.MovI(isa.R2, 0)        // iteration counter
	b.MovI(isa.R3, int64(iters))
	b.Label("chase")
	b.Load(isa.R1, isa.R1, 0) // p = *p
	b.AddI(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, "chase")
	b.Halt()
	setup := func(m *mem.Memory) {
		// A permutation cycle over `nodes` line-spaced slots.
		rng := cache.NewRand(12345)
		perm := make([]int64, nodes)
		for i := range perm {
			perm[i] = int64(i)
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i := 0; i < nodes; i++ {
			from := dataBase + perm[i]*mem.LineBytes
			to := dataBase + perm[(i+1)%nodes]*mem.LineBytes
			m.Write64(from, to)
		}
	}
	return b.MustBuild(), setup
}

// buildStream reads and writes a long array sequentially: high memory-level
// parallelism, branch-light.
func buildStream(iters int) (*isa.Program, func(*mem.Memory)) {
	b := asm.NewBuilder()
	b.MovI(isa.R1, dataBase)
	b.MovI(isa.R2, 0)
	b.MovI(isa.R3, int64(iters))
	b.Label("loop")
	b.Load(isa.R4, isa.R1, 0)
	b.Load(isa.R5, isa.R1, 8)
	b.Add(isa.R6, isa.R4, isa.R5)
	b.Store(isa.R1, 16, isa.R6)
	b.AddI(isa.R1, isa.R1, 64)
	b.AddI(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, "loop")
	b.Halt()
	return b.MustBuild(), func(*mem.Memory) {}
}

// buildCompute is a dense arithmetic kernel: mul and sqrt chains with high
// ILP, barely touching memory.
func buildCompute(iters int) (*isa.Program, func(*mem.Memory)) {
	b := asm.NewBuilder()
	b.MovI(isa.R1, 999983)
	b.MovI(isa.R2, 0)
	b.MovI(isa.R3, int64(iters))
	b.MovI(isa.R4, 7)
	b.MovI(isa.R5, 13)
	b.Label("loop")
	b.Mul(isa.R6, isa.R4, isa.R5)
	b.MulI(isa.R7, isa.R6, 3)
	b.Sqrt(isa.R8, isa.R1)
	b.Add(isa.R4, isa.R6, isa.R8)
	b.Sub(isa.R5, isa.R7, isa.R8)
	b.Xor(isa.R1, isa.R1, isa.R7)
	b.AddI(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, "loop")
	b.Halt()
	return b.MustBuild(), func(*mem.Memory) {}
}

// buildBranchy walks a pseudo-random bit table and branches on each bit:
// roughly half the branches mispredict, squash-bound.
func buildBranchy(iters int) (*isa.Program, func(*mem.Memory)) {
	const tableWords = 128
	b := asm.NewBuilder()
	b.MovI(isa.R1, dataBase)
	b.MovI(isa.R2, 0)
	b.MovI(isa.R3, int64(iters))
	b.MovI(isa.R9, tableWords-1)
	b.Label("loop")
	b.And(isa.R4, isa.R2, isa.R9) // index = i % tableWords
	b.ShlI(isa.R4, isa.R4, 3)
	b.Add(isa.R4, isa.R4, isa.R1)
	b.Load(isa.R5, isa.R4, 0) // data-dependent direction
	b.Beq(isa.R5, isa.R0, "even")
	b.AddI(isa.R6, isa.R6, 3)
	b.Jmp("join")
	b.Label("even")
	b.AddI(isa.R6, isa.R6, 1)
	b.Label("join")
	b.AddI(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, "loop")
	b.Halt()
	setup := func(m *mem.Memory) {
		rng := cache.NewRand(777)
		for i := int64(0); i < tableWords; i++ {
			m.Write64(dataBase+i*8, int64(rng.Intn(2)))
		}
	}
	return b.MustBuild(), setup
}

// buildHash mixes computed-address loads, stores and ALU work (xz-like).
func buildHash(iters int) (*isa.Program, func(*mem.Memory)) {
	const maskWords = 511 // 4KB window
	b := asm.NewBuilder()
	b.MovI(isa.R1, dataBase)
	b.MovI(isa.R2, 0)
	b.MovI(isa.R3, int64(iters))
	b.MovI(isa.R9, maskWords)
	b.MovI(isa.R4, 0x9e37)
	b.Label("loop")
	b.Mul(isa.R5, isa.R4, isa.R4)
	b.ShrI(isa.R5, isa.R5, 5)
	b.Xor(isa.R4, isa.R4, isa.R5)
	b.And(isa.R6, isa.R4, isa.R9)
	b.ShlI(isa.R6, isa.R6, 3)
	b.Add(isa.R6, isa.R6, isa.R1)
	b.Load(isa.R7, isa.R6, 0)
	b.Add(isa.R7, isa.R7, isa.R4)
	b.Store(isa.R6, 0, isa.R7)
	b.AddI(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, "loop")
	b.Halt()
	return b.MustBuild(), func(*mem.Memory) {}
}

// buildMixed interleaves chase, stream, arithmetic and a data-dependent
// branch in one loop body.
func buildMixed(iters int) (*isa.Program, func(*mem.Memory)) {
	b := asm.NewBuilder()
	b.MovI(isa.R1, dataBase)
	b.MovI(isa.R2, 0)
	b.MovI(isa.R3, int64(iters))
	b.MovI(isa.R9, 255)
	b.Label("loop")
	b.And(isa.R4, isa.R2, isa.R9)
	b.ShlI(isa.R4, isa.R4, 3)
	b.Add(isa.R4, isa.R4, isa.R1)
	b.Load(isa.R5, isa.R4, 0)
	b.Sqrt(isa.R6, isa.R5)
	b.MulI(isa.R7, isa.R6, 5)
	b.Store(isa.R4, 0, isa.R7)
	b.And(isa.R8, isa.R5, isa.R9)
	b.Beq(isa.R8, isa.R0, "skip")
	b.AddI(isa.R10, isa.R10, 1)
	b.Label("skip")
	b.AddI(isa.R2, isa.R2, 1)
	b.Blt(isa.R2, isa.R3, "loop")
	b.Halt()
	setup := func(m *mem.Memory) {
		rng := cache.NewRand(4242)
		for i := int64(0); i < 256; i++ {
			m.Write64(dataBase+i*8, int64(rng.Uint64()%1024))
		}
	}
	return b.MustBuild(), setup
}
