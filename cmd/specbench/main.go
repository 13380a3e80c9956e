// Command specbench is the end-to-end and per-layer benchmark of
// artifact regeneration: it regenerates the paper's artifacts through
// the inprocess, subprocess and remote backends, checks every result,
// and reports named metrics with units.
//
// Usage, from the repository root:
//
//	bash cmd/specbench/bench.sh [-workload NAME|all] [-seed N] [-rounds N | -seconds S] [-trace 0|1|FILE] [-out FILE]
//	bash cmd/specbench/bench.sh compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
//
// bench.sh builds this module (a module of its own, so the benchmark is
// not part of the repository's tests or builds) with its build cache
// under .bench_build/ and runs it with the given arguments. Inside
// cmd/specbench, `go run . -seed 1` works too.
//
// # Run shape
//
// One driver process runs regenerations one at a time. Each
// regeneration is a fresh child: the driver re-execs itself, and the
// child first calls experiment.RunWorkerIfRequested so it can also
// serve as a backend worker. A fresh child is what a CLI user pays on
// every run: package init, the victim cache, the TrialState pools and
// the worker spawns; and peak memory is only clean per process. Each
// child uses at most 2 workers: 2 goroutines, 2 subprocess workers or 2
// local remote workers.
//
// Work is done in rounds. Each round starts with the calibration kernel
// and then runs each selected workload's regenerations: 6 of matrix and
// 1 of each other workload, interleaved round-robin when all workloads
// run. A full set (-workload all, 30 rounds) takes about two minutes on
// 2 cores. With -seconds S, rounds repeat until S seconds have passed;
// BENCHMARK.json's command is run that way, one -workload at a time.
// -seed is the Figure 7 seed; matrix and defense-remote are seedless by
// the paper's design, so for them every seed gives the same inputs.
//
// # Workloads
//
// Simulated caches are primed per trial by core.PrimePlan in matrix and
// the histograms, and start cold for the Figure 12 kernels.
//
//   - matrix: table1 then concordance, all 14 schemes (98 cells each),
//     inprocess with 2 workers. The paper's headline artifact. All of
//     its time is in the trial harness, the simulator and the detector,
//     with transport and journal bypassed: the target for simulator,
//     detector and snapshot/fork changes, and the null case for
//     transport changes.
//   - histogram-subprocess: figure7 with 1500 trials per arm (3000
//     shards of about 0.4 ms) and jitter 30, subprocess with 2 workers.
//     Tiny shards make per-shard stdio dispatch and encoding visible. It
//     is the reference side of the subprocess-vs-remote decision.
//   - histogram-remote: the same params on remote with 2 local workers
//     and a fresh -journal directory per regeneration. The work is
//     identical to histogram-subprocess, so the gap between the two is
//     transport, leases and journal: one POST per shard.
//   - defense-remote: figure12 with 4000 iterations, fence-spectre and
//     fence-futuristic (18 shards of 10-400 ms), remote with 2 workers
//     and no journal. Long cycle-level simulations dominate, and a few
//     large shards make the scheduling tail and backup leases matter:
//     the remote layer used the opposite way from histogram-remote.
//
// Figure 11 is left out on purpose: its shard (PoC.RunBit) exercises
// the same trial harness as Figure 7.
//
// # Correctness
//
// Every regeneration is checked. table1 and concordance must reproduce
// the committed results baselines (internal/results/testdata/baseline),
// which have the same params. The Figure 7 and Figure 12 records must
// match the hashes pinned in workloads.go (seed 1, and the seedless
// Figure 12); for other seeds the driver computes the reference once per
// run with experiment.Run on InProcess{Workers: 1}, untimed. The shapes
// must hold too: Figure 7 separation >= 50 cycles and overlap <= 0.05,
// and Figure 12 mean slowdown fence-futuristic > fence-spectre >= 1. A
// run with any failed regeneration exits non-zero.
//
// # End-to-end metrics
//
// Measured with tracing off, per workload; each is reported as the
// median, quartiles and sample count, plus the highest percentile with
// at least ten samples beyond it. All are lower-is-better; only the
// median is gated, by the bound in BENCHMARK.json.
//
//   - wall_s: exec of the child to its exit.
//   - cpu_s: user+sys CPU of the child and its reaped workers, from the
//     child's wait status (Linux wait4 reports a child's own usage plus
//     that of the children it waited for).
//   - setup_s: exec of the child to its first shard completion (the
//     done hook of experiment.Run): process start, package init, and
//     backend and worker spin-up. Measured on every regeneration, so a
//     run reports the median of many set-ups.
//   - peak_rss_mb: the larger of the child's VmHWM (from
//     /proc/self/status) and the largest maxrss of its reaped workers
//     (RUSAGE_CHILDREN, read by the child after its backend returned).
//
// Do not use the driver's view of a child's ru_maxrss. Go starts
// children with vfork semantics (the child shares the parent's address
// space until exec), so at exec the kernel folds the parent's RSS
// high-water mark into the child's maxrss: after a Go parent has touched
// 200 MiB, /bin/true reports a maxrss of 207284 KiB to it, and every
// workload would read the driver's size. VmHWM belongs to the address
// space built at exec, and the child reads RUSAGE_CHILDREN itself.
//
// Failures are counted against regenerations attempted, and the result
// line reports both.
//
// # Calibration
//
// Every time metric is reported as raw × cal_ref_s / calib_s(round),
// with cal_ref_s = 0.080: calib_s is the run time of a fixed kernel
// (calib.go) at the start of the sample's round. The kernel imports only
// the standard library, so no change to this module's packages can
// move it. It runs on 2 goroutines: map churn, a sort of 200k ints, and
// a 3M-step pointer chase over a shuffled 64k-node ring.
//
// The benchmark was built on a shared 2-vCPU virtual machine whose speed
// swings over minutes. Across ten 20-second runs per workload, the
// interquartile range of the wall_s medians, as a share of their
// median, was 38-62% raw and 15-21% calibrated (seeds 11-20); a second
// ten runs each (seeds 21-30) gave 8-34% raw and 6-13% calibrated.
// Calibration removes most of the drift but not all, because the kernel
// and the workloads feel the host's contention differently: in a
// 15-minute study, one-minute medians of the workloads still moved 6-9%
// after calibration. Runs of 5, 10 or 20 seconds spread alike, so more
// samples per run do not help; hence time bounds of 0.25 rather than
// 0.10.
//
// recorded/ holds the first numbers: set1.json and set2.json are two
// full sets at seed 1, seed2.json a held-out set at seed 2. Their
// medians agree within every bound (specbench compare
// recorded/set1.json recorded/set2.json).
//
// # Per-layer metrics
//
// A traced run (-trace 1, or -trace FILE) records spans around the calls
// this program makes into each layer's public functions: name, layer,
// start, end, parent, and the child process (regeneration) it belongs
// to. It writes them at exit as a Chrome trace-event file (default
// .bench_build/specbench-trace.json) and prints each layer's self time:
// its spans' durations minus the parts their child spans cover. Shards
// of the subprocess and remote backends run in worker processes the
// spans cannot see into, so there experiment.Run's self time is booked
// to the backend's layer: transport, scheduling and worker compute.
// End-to-end numbers always come from untraced regenerations; a traced
// run interleaves traced and untraced ones, and trace.overhead_frac is
// the ratio of their wall_s medians minus 1.
//
// Layer probes run once per traced run in a fresh probe child, at the
// params of every workload's steps, so a traced run of any workload
// reports every per-layer metric:
//
//   - core.matrix_cell_ms: core.MatrixShard median over the 98 cells.
//   - core.attack_setup_share: Σ core.NewAttackSystem ÷ Σ core.RunTrial
//     over the 98 cells. This is the cold path, so it bounds the priming
//     share from above; it decides snapshot/fork trial execution.
//   - core.figure7_shard_us: core.Figure7Shard median.
//   - detect.cell_verdict_ms: detect.CellVerdict median.
//   - detect.share: Σ CellVerdict ÷ (Σ CellVerdict + Σ MatrixShard),
//     the detector's share of a concordance cell.
//   - runner.busy_frac: Σ shard span ÷ (2 × experiment.Run wall) of the
//     in-process steps, measured with a copy of each spec whose Run
//     field is reassigned to a span-recording wrapper.
//   - uarch.ns_per_sim_cycle: Σ workload.EvalShard host time ÷ Σ
//     Cell.Cycles over the Figure 12 cells.
//   - uarch.sim_cycles: Σ Cell.Cycles, an exact count: a change that
//     only speeds up the host must leave it identical.
//   - workload.max_cell_share: the slowest EvalShard ÷ Σ cells.
//
// These depend on the workload's own steps:
//
//   - experiment.encode_us, experiment.decode_us, experiment.shard_bytes:
//     ShardLine JSON encode, decode into Spec.NewShard (via
//     experiment.DecodeShard), and encoded size, over the workload's
//     shard values.
//   - remote.lease_us, remote.result_us: one /lease grant and one
//     single-line /results call through Coordinator.Handler() in memory,
//     for the workload's experiments; remote.journal_us is result_us
//     with the journal on minus off.
//   - remote.post_us: one loopback POST /results of a single ResultLine
//     through httptest.NewServer(coord.Handler()) and an http.Client,
//     the per-shard cost a remote worker pays.
//   - experiment.aggregate_ms: Spec.Aggregate per regeneration.
//   - experiment.first_shard_ms: the experiment.Run call to the first
//     done.
//   - main.init_ms: exec to the child's main entry (package init of
//     every linked module).
//   - remote.backups_issued, remote.backups_won_frac: backup leases
//     issued per regeneration, and the share of shards whose accepted
//     result came from a backup lease, parsed from the "remote: run
//     complete" line the remote backend writes; 0 on workloads without a
//     remote step.
//   - trace.overhead_frac: as above.
//
// BENCHMARK.json lists them, and the perLayer table in metrics.go names
// the end-to-end metric and workload each should move.
//
// # Naming a claim
//
// A later change names its claim by metric and workload, for example
// "wall_s on histogram-remote", and predicts which other pairs stay
// within their bounds and which layer metric moves (say remote.post_us).
// It measures parent and change with the same benchmark, alternating,
// saves each run with -out, and runs
//
//	specbench compare PARENT1.json CHANGE1.json PARENT2.json CHANGE2.json ...
//
// compare checks every (workload, metric) median against its bound. It
// reports "unresolved", not "within", when the parent's spread is wider
// than the bound, and "gain" only with at least 10 pairs, at least 9 of
// 10 won, and a gap between the medians wider than the parent's
// interquartile range. It exits non-zero on a regression or a failed
// regeneration. On this host a gain smaller than the run-to-run spread
// above needs those ten pairs; one pair can only show a change is
// within its bound.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"specinterference/internal/experiment"
)

func main() {
	// Backend workers spawned by a child never come back from this call.
	experiment.RunWorkerIfRequested()
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultTrace is where -trace 1 writes the span file.
const defaultTrace = ".bench_build/specbench-trace.json"

// run is the driver's entry point; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("specbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "Figure 7 seed")
	rounds := fs.Int("rounds", 30, "rounds to run")
	seconds := fs.Float64("seconds", 0, "run rounds until this many seconds have passed, instead of -rounds")
	trace := fs.String("trace", "0", "1 or a file name: a traced run, writing spans to the file (1: "+defaultTrace+")")
	out := fs.String("out", "", "write the result file compare reads to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "specbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "specbench:", err)
		return 1
	}
	d := &driver{exe: exe, table: workloads(*seed), rounds: *rounds, seconds: *seconds, log: stderr}
	if *name == "all" {
		d.selected = d.table
	}
	for _, w := range d.table {
		if w.name == *name {
			d.selected = []*workloadSpec{w}
		}
	}
	if d.selected == nil {
		fmt.Fprintf(stderr, "specbench: unknown workload %q\n", *name)
		return 2
	}
	tracePath := *trace
	switch tracePath {
	case "0", "":
		tracePath = ""
	case "1":
		tracePath = defaultTrace
	}
	d.trace = tracePath != ""
	return d.main(*seed, tracePath, *out, stdout)
}

// main runs the set, writes its outputs and returns the exit code.
func (d *driver) main(seed uint64, tracePath, out string, stdout io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	samples, err := d.run(ctx)
	if err != nil {
		fmt.Fprintln(d.log, "specbench:", err)
		return 1
	}
	doc := d.buildResult(seed, samples)
	printTable(stdout, doc, d.selected)
	if d.trace {
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			fmt.Fprintln(d.log, "specbench:", err)
			return 1
		}
		self, err := d.writeTrace(tracePath, samples)
		if err != nil {
			fmt.Fprintln(d.log, "specbench:", err)
			return 1
		}
		printSelf(stdout, self)
		fmt.Fprintf(d.log, "specbench: wrote spans to %s\n", tracePath)
	}
	if out != "" {
		if err := writeJSON(out, doc); err != nil {
			fmt.Fprintln(d.log, "specbench:", err)
			return 1
		}
	}
	code := 0
	for _, w := range d.selected {
		if doc.Results[w.name].Failed > 0 {
			code = 1
		}
	}
	if len(d.selected) == 1 {
		line, err := resultLine(doc, d.selected[0].name)
		if err != nil {
			fmt.Fprintln(d.log, "specbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}
