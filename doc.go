// Package specinterference is a simulator-based reproduction of
// "Speculative Interference Attacks: Breaking Invisible Speculation
// Schemes" (Behnia et al., ASPLOS 2021).
//
// The paper shows that invisible-speculation defenses — InvisiSpec,
// Delay-on-Miss, SafeSpec, MuonTrap, Conditional Speculation — still leak
// through the cache: mis-speculated instructions can delay older,
// bound-to-retire instructions (speculative interference), and a
// secret-dependent delay reorders two unprotected memory accesses, leaving
// a persistent, secret-dependent change in cache replacement state.
//
// This module contains everything needed to reproduce the paper's
// evaluation on a cycle-level out-of-order multi-core simulator written in
// pure Go:
//
//   - a small RISC-like ISA whose opcodes are each stated once, as a row
//     of one instruction table (mnemonic, execution class, operands) that
//     the decode predicates, the printer and the parser read, plus an
//     assembler and an architectural emulator,
//   - an out-of-order core with age-ordered issue, non-pipelined execution
//     units, MSHRs, a mistrainable branch predictor, and squash/recovery,
//   - a cache hierarchy with the QLRU_H11_M1_R0_U0 replacement policy the
//     paper reverse-engineered from its Kaby Lake target,
//   - executable models of every invisible-speculation scheme in Table 1
//     plus the paper's fence defenses, each a plain uarch.SpecPolicy
//     value in one table (internal/schemes),
//   - the three interference gadgets (GDNPEU, GDMSHR, GIRS), the
//     replacement-state receiver of §4.2.2, and end-to-end cross-core
//     proof-of-concept attacks,
//   - harnesses that regenerate every table and figure of the evaluation
//     (Table 1; Figures 7, 8, 9, 10, 11a, 11b, 12),
//   - a checker for the §5.1 "ideal invisible speculation" definition,
//   - a SPECTECTOR-style static speculative-leak detector
//     (internal/detect) that self-composes an abstract execution of each
//     gadget under a scheme's speculation policy — per-branch ROB-bounded
//     speculative windows, differential NPEU/MSHR/RS pressure, per-ordering
//     visibility rules — and whose verdict must agree with the empirical
//     Table 1 outcome for every cell (the concordance experiment), and
//   - a unified experiment engine (internal/experiment) that runs every
//     harness as sharded trials over pluggable execution backends, and
//   - a contract-enforcement lint suite (internal/lint, cmd/speclint)
//     that statically checks the repo's determinism, alloc-free and
//     lock-discipline contracts in CI, ahead of the
//     dynamic gates that check the same properties at run time.
//
// # Experiment engine and backends
//
// Every repeated-trial artifact — the Figure 7 histogram, the Table 1
// matrix, the Figure 11 channel curves, the Figure 12 defense sweep and
// the detector concordance grid — is a registered experiment spec in
// internal/experiment, and experiment.Run is the only code that runs a
// whole one. A spec declares a shard plan, a pure per-shard run function,
// and a serial-order aggregator producing a sealed run record; the engine
// executes specs over a Backend, and each backend has one parallelism
// knob:
//
//   - the in-process backend shards trials across the bounded worker
//     pool of internal/runner (-parallel N goroutines, 0 = one per CPU);
//   - the subprocess backend re-execs the binary as -procs N hidden
//     -shard-worker processes and runs the remote backend's coordinator
//     over their stdin/stdout pipes (no server, no journal): idle workers
//     get the next grant of n/16 shards (at least 1) and run its shards
//     one at a time, results are accepted like remote /results lines
//     and collected by shard index, stragglers get speculative backups
//     and a crashed worker's undone shards run elsewhere;
//   - the remote backend (internal/experiment/remote) runs an HTTP
//     coordinator (-listen ADDR, default a loopback ephemeral port)
//     that leases shard chunks to workers over the network: the
//     binary re-exec'd in a hidden -remote-worker mode against -procs N
//     local processes, or started by hand on any machine
//     (vulnmatrix -remote-worker -connect http://host:port), each
//     running its grant's shards one at a time. Leases expire (a 10s
//     TTL) unless renewed, and expired leases are re-issued to other
//     workers, so a crashed or stalled worker costs wall-clock, never
//     correctness; duplicate results are deduplicated by shard index
//     with a byte-equality assertion that turns any determinism
//     violation into a hard run failure, while a stale straggler's
//     error line for a shard someone else already completed is
//     ignored. Every grant is n/16 shards (at least 1); no flag sets
//     the grant size or the TTL. When the queue drains with grants
//     still in flight, idle workers are handed speculative backup
//     copies of the oldest straggler's undone remainder (never to the
//     span's own holder, at most one live backup per span) — the dedup
//     picks whichever copy lands first, so a slow-but-renewing machine
//     gates the tail at min(primary, backup) instead of its own pace,
//     and a crashed worker's chunk is taken over as soon as another
//     worker idles; GET /stats and an end-of-run summary expose the
//     backup counters.
//     Every request carries a per-run random token and results are
//     validated against the span their lease granted, so cross-run
//     confusion and over-reaching workers are rejected (410/400). With
//     -journal DIR the coordinator appends every accepted shard result
//     to DIR/<experiment>.jsonl and, restarted against the same
//     directory, replays the journal and serves only the remainder —
//     kill the coordinator mid-run, restart it, and the final record
//     signature still equals an uninterrupted run's.
//
// The seed-derivation contract makes the backend a pure wall-clock
// knob: every shard's seed is an arithmetic function of its index alone
// (Figure 7 trial i of arm s runs at seedBase + 2i + s; channel trial
// (bit b, rep r) at seedBase*1_000_003 + 17 + b*reps + r + 1 — exactly
// the sequences the old serial loops produced), every shard builds its
// own System and Memory, and collection is ordered by shard index.
// Aggregation then replays the serial loop's order, so outputs are
// bit-identical at any worker count, process count, machine count, or
// backend; the determinism tests in internal/core, internal/channel and
// internal/workload pin the serial reference loops as goldens, the
// backend-equivalence tests in internal/experiment and
// internal/experiment/remote pin all three backends to the committed
// baseline signatures, and the fault-injection suite in
// internal/experiment/faulttest proves that crashing, stalling and
// corrupting workers still leave the remote backend's records
// byte-identical to the committed baselines.
//
// Library callers use RunExperiment (experiment name, parameters,
// backend), whose sealed record carries the full typed payload; the
// domain packages keep only the per-shard primitives and aggregators the
// specs call. The five experiment CLIs (interference, vulnmatrix,
// covertbench, defensebench, concordance) sit on the engine's shared
// driver and take common flags: -parallel (read by the in-process
// backend), -procs (subprocess and remote), -listen and -journal
// (remote), -backend, -json, -store and -progress (periodic
// shard-completion reporting to stderr, off by default); a backend flag
// the chosen backend does not read, or a negative count, is an error,
// and bad experiment parameters fail in planning, before any worker
// starts. Each experiment's own flags size its sweep: -trials for
// Figure 7, -bits for Figure 11, -iters for Figure 12. With -json a CLI
// prints its sealed run record as one line, the same record its text
// rendering reads (a library caller renders a Table 1 record with its
// payload's Format).
//
// # Results store and regression tracking
//
// Every experiment's output can persist as a run record: the experiment
// name, its parameters (trial counts, seeds, scheme lists), volatile
// metadata (git revision, worker count, wall time) and the full payload —
// per-arm Figure 7 latencies, every Table 1 matrix cell, each Figure 11
// curve point (a ChannelResult), the Figure 12 slowdown table (an
// EvalResult), every concordance cell. Records append as JSONL under a
// store directory (one file per experiment, newest last) via the -store
// flag on vulnmatrix, concordance, covertbench, defensebench and
// interference, or programmatically: RunExperiment returns the sealed
// record and OpenResultStore opens the store to append it to.
//
// Each record carries a canonical SHA-256 signature over its parameters
// and payload; metadata is excluded, so two runs of the same experiment
// at the same parameters hash identically no matter the worker count,
// machine or commit that produced them. Every experiment is
// deterministic, so DiffRunRecords has no tolerance: two comparable
// records are identical when their canonical bytes match and changed
// otherwise, and a changed report names each moved value by its path,
// e.g. table1.cells[14]{gadget=G_NPEU,ordering=VD-AD,scheme=unsafe}.ref_cycle:
// 231 → 230. Records of different experiments, schemas or parameters
// are incomparable.
//
// The resultstore CLI drives the store: list and show browse history,
// diff compares two records (exit non-zero unless identical), check
// reruns every experiment at the committed baseline's parameters —
// through any backend, via -backend/-parallel/-procs/-listen/-journal
// — and fails unless every experiment is identical, and
// baseline (re)writes the small-trial baseline records committed under
// internal/results/testdata/baseline, the one committed copy of each
// result and the one way to refresh it. The tests hold the same gate:
// TestGolden<Exp> and TestBackendEquivalence (internal/experiment)
// compare every experiment, on every backend, with those records, and
// each experiment CLI's TestSmokeJSON compares its -json record with
// them. Which test or CI step fails on which fault is indexed once, in
// the Gates section of the verify skill (the repository's one SKILL.md).
//
// See README.md for a tour. The root package is a facade over the
// internal packages; the cmd/ tools and examples/ programs show it in
// use.
package specinterference
