package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/schemes"
	"specinterference/internal/uarch"
)

// genGoldenConfigs are the machines the generated-program golden runs on:
// the four issue configurations the root package's kernel golden covers,
// plus a small machine whose RS, ROB, D-MSHR file and CDB are tight
// enough that generated programs hit RS-full stalls, MSHR retries and CDB
// conflicts, which the attack machine never shows on them.
var genGoldenConfigs = []struct {
	name  string
	tweak func(*uarch.Config)
}{
	{"default", func(*uarch.Config) {}},
	{"youngest-first", func(c *uarch.Config) { c.YoungestFirstIssue = true }},
	{"hold-rs", func(c *uarch.Config) { c.HoldRSUntilSafe = true }},
	{"hold-rs+age-arb", func(c *uarch.Config) { c.HoldRSUntilSafe = true; c.AgePriorityArb = true }},
	{"small", func(c *uarch.Config) { c.RSSize, c.ROBSize, c.Cache.DMSHRs, c.CDBWidth = 16, 32, 2, 1 }},
}

// genGoldenPrograms returns the generated programs the golden pins: the
// fuzz seed corpus (the three gadget programs re-encoded) and four inputs
// of seeded random bytes, all decoded by buildFuzzProgram.
func genGoldenPrograms(t *testing.T) (names []string, progs []*isa.Program) {
	t.Helper()
	seeds := fuzzSeeds(t)
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		progs = append(progs, buildFuzzProgram(seeds[name]))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := cache.NewRand(seed)
		data := make([]byte, 3*160)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		names = append(names, fmt.Sprintf("random-%d", seed))
		progs = append(progs, buildFuzzProgram(data))
	}
	return names, progs
}

// TestGeneratedCoreStatsGolden pins the final cycle and full CoreStats of
// generated programs, under every scheme on every genGoldenConfigs
// machine, to testdata/corestats_generated.golden. The kernel golden in
// the root package covers six hand-written loops; this one covers inputs
// nobody picked, and its small machine drives the MSHR-retry, RS-full and
// CDB-conflict paths. Each line is one program and machine with one
// result, followed by the schemes that produced it, so schemes that leave
// a program's timing alone share a line. Like the kernel golden it must
// stay byte-identical across simulator speedups; rewrite it with -update
// only when a change is meant to alter simulated behavior. Each config
// reuses one machine through System.Reset, as pooled trials do. Every run
// is repeated cycle by cycle, with fast-forward off, and must produce the
// same result line: the idle-cycle skip must account stalls and MSHR
// retries exactly, and find every event that ends an idle stretch.
func TestGeneratedCoreStatsGolden(t *testing.T) {
	names, progs := genGoldenPrograms(t)
	var b strings.Builder
	for _, gc := range genGoldenConfigs {
		cfg := AttackConfig()
		gc.tweak(&cfg)
		sys, err := uarch.NewSystem(cfg, mem.New())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			var results, byResult []string // result line, its schemes
			for _, scheme := range schemes.Names() {
				pol, err := schemes.ByName(scheme)
				if err != nil {
					t.Fatal(err)
				}
				var res string
				for _, ff := range []bool{true, false} {
					sys.Reset(cfg.Cache.Seed)
					sys.SetFastForward(ff)
					if err := sys.LoadProgram(0, p, pol); err != nil {
						t.Fatal(err)
					}
					if err := sys.Run(2_000_000); err != nil {
						t.Fatalf("%s %s %s (fast-forward %v): %v", names[i], scheme, gc.name, ff, err)
					}
					got := fmt.Sprintf("cycle=%d %+v", sys.Cycle(), sys.Core(0).Stats())
					if ff {
						res = got
					} else if got != res {
						t.Errorf("%s %s %s: fast-forward off gives\n  %s\nbut on gives\n  %s", names[i], scheme, gc.name, got, res)
					}
				}
				if j := slices.Index(results, res); j >= 0 {
					byResult[j] += "," + scheme
				} else {
					results = append(results, res)
					byResult = append(byResult, scheme)
				}
			}
			for j, res := range results {
				fmt.Fprintf(&b, "%s %s %s %s\n", names[i], gc.name, byResult[j], res)
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "corestats_generated.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
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
