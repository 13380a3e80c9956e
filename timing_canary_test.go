package specinterference

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specinterference/internal/mem"
	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
	"specinterference/internal/workload"
)

// The committed timing of the mixed kernel on the default one-core machine:
// the sim-cycles/op and sim-insts/op metrics blessed into
// BENCH_SimulatorThroughput.json. The CPU-time optimizations of the
// simulator (safety limits read through cursors into the ROB and the
// memory-order queue, per-class lists of operand-ready RS entries for
// issue, paged memory, idle-cycle fast-forward, resets that restore only
// the cache sets a trial filled) are contractually timing-neutral — they
// change how fast the simulator runs, never what it simulates — so these
// numbers must hold on every machine and at every optimization level.
const (
	mixedKernelCycles = 12634
	mixedKernelInsts  = 12004
)

// runKernel executes the named kernel to completion on a fresh default
// machine and returns the core's counters.
func runKernel(t *testing.T, kernel string, policy uarch.SpecPolicy, fastForward bool) uarch.CoreStats {
	t.Helper()
	w, err := workload.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	return runWorkload(t, w, 1000, uarch.DefaultConfig(1), policy, fastForward)
}

// runWorkload executes w at the given scale to completion on a fresh
// one-core machine built from cfg and returns the core's counters.
func runWorkload(t *testing.T, w workload.Workload, iters int, cfg uarch.Config, policy uarch.SpecPolicy, fastForward bool) uarch.CoreStats {
	t.Helper()
	prog, setup := w.Build(iters)
	m := mem.New()
	setup(m)
	sys, err := uarch.NewSystem(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetFastForward(fastForward)
	if err := sys.LoadProgram(0, prog, policy); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return sys.Core(0).Stats()
}

// TestTimingDeterminismCanary pins the simulated timing of the throughput
// benchmark's kernel to the committed trajectory: any drift in Cycles or
// Retired means a "performance" change altered simulated behavior, which
// the bit-identical-timing contract forbids.
func TestTimingDeterminismCanary(t *testing.T) {
	st := runKernel(t, "mixed", uarch.SpecPolicy{}, true)
	if st.Cycles != mixedKernelCycles {
		t.Errorf("mixed kernel simulated %d cycles, committed trajectory says %d", st.Cycles, mixedKernelCycles)
	}
	if st.Retired != mixedKernelInsts {
		t.Errorf("mixed kernel retired %d insts, committed trajectory says %d", st.Retired, mixedKernelInsts)
	}
}

// TestFastForwardEquivalence reruns every workload kernel — and the mixed
// kernel under a gating defense, which exercises the idle-heavy issue-stall
// path — with idle-cycle fast-forward disabled, and requires the full
// counter set to match the fast-forwarded run exactly. Fast-forward may
// only skip cycles it can prove change nothing.
func TestFastForwardEquivalence(t *testing.T) {
	kernels := []string{"pointer_chase", "stream", "compute", "branchy", "hash", "mixed"}
	for _, k := range kernels {
		ff := runKernel(t, k, uarch.SpecPolicy{}, true)
		slow := runKernel(t, k, uarch.SpecPolicy{}, false)
		if ff != slow {
			t.Errorf("%s: stats diverge with fast-forward:\n  on:  %+v\n  off: %+v", k, ff, slow)
		}
	}
	for _, scheme := range []string{"fence-spectre", "fence-futuristic", "dom", "invisispec-spectre"} {
		pol, err := schemes.ByName(scheme)
		if err != nil {
			t.Fatal(err)
		}
		ff := runKernel(t, "mixed", pol, true)
		pol2, err := schemes.ByName(scheme)
		if err != nil {
			t.Fatal(err)
		}
		slow := runKernel(t, "mixed", pol2, false)
		if ff != slow {
			t.Errorf("mixed under %s: stats diverge with fast-forward:\n  on:  %+v\n  off: %+v", scheme, ff, slow)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/corestats.golden from the current simulator")

// goldenIters is the kernel scale of the CoreStats golden: every kernel
// reaches its steady-state loop, yet all runs finish in a few seconds
// under -race.
const goldenIters = 40

// issueConfigs are the issue-stage machine variants the golden covers:
// arbitration order, RS release timing and age-priority preemption all
// change which candidates the issue stage sees and picks.
var issueConfigs = []struct {
	name  string
	tweak func(*uarch.Config)
}{
	{"default", func(*uarch.Config) {}},
	{"youngest-first", func(c *uarch.Config) { c.YoungestFirstIssue = true }},
	{"hold-rs", func(c *uarch.Config) { c.HoldRSUntilSafe = true }},
	{"hold-rs+age-arb", func(c *uarch.Config) { c.HoldRSUntilSafe = true; c.AgePriorityArb = true }},
}

// TestCoreStatsGolden pins the full CoreStats of every workload kernel
// under every scheme and issue configuration to testdata/corestats.golden.
// The canary above pins only the mixed kernel's cycle and retired counts,
// and no result signature covers IssueGateStalls or CDBConflicts, so this
// is the byte-for-byte check that a simulator speedup left every counter
// of every issue path unchanged. Rewrite it with -update only when a
// change is meant to alter simulated behavior.
func TestCoreStatsGolden(t *testing.T) {
	var b strings.Builder
	for _, w := range workload.All() {
		for _, scheme := range schemes.Names() {
			for _, ic := range issueConfigs {
				pol, err := schemes.ByName(scheme)
				if err != nil {
					t.Fatal(err)
				}
				cfg := uarch.DefaultConfig(1)
				ic.tweak(&cfg)
				st := runWorkload(t, w, goldenIters, cfg, pol, true)
				fmt.Fprintf(&b, "%s %s %s %+v\n", w.Name, scheme, ic.name, st)
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "corestats.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d differs:\n  got:  %s\n  want: %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
