package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	si "specinterference"
	"specinterference/internal/cmdtest"
)

// writeTestBaseline builds a small baseline store directly through the
// facade (faster than shelling out to `resultstore baseline`, and it lets
// tests tamper with records before sealing).
func writeTestBaseline(t *testing.T, dir string, mutate func(*si.RunRecord)) {
	t.Helper()
	store, err := si.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range si.ResultExperiments() {
		params, err := si.BaselineRunParams(exp)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := si.RunExperiment(context.Background(), exp, params, nil)
		if err != nil {
			t.Fatalf("regenerate %s: %v", exp, err)
		}
		rec.Meta.Note = "baseline"
		if mutate != nil {
			mutate(rec)
			// Tampering invalidates the sealed signature; restore
			// consistency so the record represents a plausible old run.
			if rec.Hash, err = rec.ComputeHash(); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestListShowDiff(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	writeTestBaseline(t, dir, nil)
	writeTestBaseline(t, dir, nil) // second generation: history of two

	out := cmdtest.Run(t, "", "list", "-store", dir)
	if !strings.Contains(out, "table1") || !strings.Contains(out, "figure12") {
		t.Errorf("list output missing experiments:\n%s", out)
	}

	out = cmdtest.Run(t, "", "show", "-store", dir, "table1@-1")
	var rec si.RunRecord
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("show emitted bad JSON: %v\n%s", err, out)
	}
	if rec.Experiment != si.ExpTable1 || rec.Table1 == nil {
		t.Errorf("show returned the wrong record: %+v", rec)
	}

	// Identical reruns at identical parameters: every diff is identical.
	for _, exp := range si.ResultExperiments() {
		out = cmdtest.Run(t, "", "diff", "-store", dir, exp+"@0", exp+"@1")
		if !strings.Contains(out, "IDENTICAL") {
			t.Errorf("diff %s@0 %s@1:\n%s", exp, exp, out)
		}
	}
}

func TestCheckPassesOnFreshBaseline(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "baseline")
	writeTestBaseline(t, dir, nil)
	out := cmdtest.Run(t, "", "check", "-baseline", dir, "-parallel", "2")
	if !strings.Contains(out, "OK: every experiment identical") {
		t.Errorf("check output:\n%s", out)
	}
}

// TestCheckSubprocessBackend: the CI gate reruns the sweep through
// re-exec'd worker processes; the records must still hash identically to
// the in-process baseline.
func TestCheckSubprocessBackend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "baseline")
	writeTestBaseline(t, dir, nil)
	out := cmdtest.Run(t, "", "check", "-baseline", dir, "-backend", "subprocess", "-procs", "2")
	if !strings.Contains(out, "OK: every experiment identical") {
		t.Errorf("subprocess check output:\n%s", out)
	}
	for _, exp := range si.ResultExperiments() {
		if !regexp.MustCompile(exp + `\s+IDENTICAL`).MatchString(out) {
			t.Errorf("subprocess check did not classify %s as identical:\n%s", exp, out)
		}
	}
}

// TestCheckRemoteBackend is the acceptance gate for the distributed
// backend: check reruns the sweep through an HTTP coordinator with three
// local leased workers over loopback and the records must still hash
// identically to the in-process baseline.
func TestCheckRemoteBackend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "baseline")
	writeTestBaseline(t, dir, nil)
	out := cmdtest.Run(t, "", "check", "-baseline", dir, "-backend", "remote", "-procs", "3")
	if !strings.Contains(out, "OK: every experiment identical") {
		t.Errorf("remote check output:\n%s", out)
	}
	for _, exp := range si.ResultExperiments() {
		if !regexp.MustCompile(exp + `\s+IDENTICAL`).MatchString(out) {
			t.Errorf("remote check did not classify %s as identical:\n%s", exp, out)
		}
	}
}

// TestBlessSubcommand: bless promotes the store's newest records to the
// committed baseline with a provenance note, so an intentional result
// shift is one reviewed command.
func TestBlessSubcommand(t *testing.T) {
	baseDir := filepath.Join(t.TempDir(), "baseline")
	storeDir := filepath.Join(t.TempDir(), "store")
	writeTestBaseline(t, baseDir, nil)
	// The store's latest table1 record carries an intentional flip — the
	// kind of change bless exists to promote.
	writeTestBaseline(t, storeDir, func(rec *si.RunRecord) {
		if rec.Experiment == si.ExpTable1 {
			rec.Table1.Cells[0].Vulnerable = !rec.Table1.Cells[0].Vulnerable
		}
	})

	out := cmdtest.Run(t, "", "bless", "-store", storeDir, "-baseline", baseDir, "-reason", "recalibrated receiver")
	if !strings.Contains(out, "provenance: blessed") || !strings.Contains(out, "recalibrated receiver") {
		t.Errorf("bless output lacks the provenance note:\n%s", out)
	}
	for _, exp := range si.ResultExperiments() {
		if !strings.Contains(out, "blessed "+exp) {
			t.Errorf("bless output missing %s:\n%s", exp, out)
		}
	}

	// The promoted baseline must carry the store's records (flip
	// included), the provenance note, and exactly one record per
	// experiment.
	store, err := si.OpenResultStore(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range si.ResultExperiments() {
		recs, err := store.Load(exp)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("%s: blessed baseline has %d records, want 1", exp, len(recs))
		}
		if !strings.Contains(recs[0].Meta.Note, "recalibrated receiver") {
			t.Errorf("%s: blessed record note %q lacks the reason", exp, recs[0].Meta.Note)
		}
	}
	blessed, err := store.Latest(si.ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := si.RunExperiment(context.Background(), si.ExpTable1, blessed.Params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blessed.Hash == fresh.Hash {
		t.Error("blessed table1 record should carry the store's flipped cell, not the regenerated matrix")
	}
}

// TestBlessRequiresReason: promoting a baseline without saying why is
// exactly the unreviewed drift the provenance note prevents.
func TestBlessRequiresReason(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	writeTestBaseline(t, storeDir, nil)
	out := cmdtest.RunFail(t, "", "bless", "-store", storeDir, "-baseline", filepath.Join(t.TempDir(), "b"))
	if !strings.Contains(out, "-reason") {
		t.Errorf("bless without -reason should name the missing flag:\n%s", out)
	}
}

// TestBlessEmptyStore: nothing to promote is an error, not a no-op.
func TestBlessEmptyStore(t *testing.T) {
	storeDir := t.TempDir()
	out := cmdtest.RunFail(t, "", "bless", "-store", storeDir, "-baseline", filepath.Join(t.TempDir(), "b"), "-reason", "x")
	if !strings.Contains(out, "no run records") {
		t.Errorf("bless on an empty store should say so:\n%s", out)
	}
}

// TestCheckFailsOnFlippedMatrixCell is the gate's reason to exist: a
// baseline whose (gadget, scheme) cell disagrees with the current tree
// must read as changed, name the cell's verdict, and fail the check.
func TestCheckFailsOnFlippedMatrixCell(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "baseline")
	writeTestBaseline(t, dir, func(rec *si.RunRecord) {
		if rec.Experiment == si.ExpTable1 {
			rec.Table1.Cells[0].Vulnerable = !rec.Table1.Cells[0].Vulnerable
		}
	})
	out := cmdtest.RunFail(t, "", "check", "-baseline", dir)
	if !regexp.MustCompile(`table1\s+CHANGED`).MatchString(out) || !strings.Contains(out, "table1.cells[0]{") ||
		!strings.Contains(out, "}.vulnerable: ") {
		t.Errorf("check failure output lacks the changed cell:\n%s", out)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("check failure output lacks the FAIL verdict:\n%s", out)
	}
}

// TestCheckFailsOnDrift: every experiment is deterministic, so the gate
// has no tolerance. A baseline whose first nonzero Table 1 reference
// cycle is off by one, or whose Figure 7 baseline arm has two samples
// swapped (what a shard placed at the wrong index looks like), must fail
// the check, and the output must name each moved value's path.
func TestCheckFailsOnDrift(t *testing.T) {
	num := func(x float64) string { b, _ := json.Marshal(x); return string(b) }
	for _, tc := range []struct {
		name, exp string
		// tamper edits the baseline record of exp before it is re-sealed
		// and returns the findings check must print.
		tamper func(t *testing.T, rec *si.RunRecord) []string
	}{
		{"ref-cycle", si.ExpTable1, func(t *testing.T, rec *si.RunRecord) []string {
			for i := range rec.Table1.Cells {
				c := &rec.Table1.Cells[i]
				if c.RefCycle != 0 {
					c.RefCycle++
					return []string{fmt.Sprintf("table1.cells[%d]{gadget=%s,ordering=%s,scheme=%s}.ref_cycle: %d → %d",
						i, c.Gadget, c.Ordering, c.Scheme, c.RefCycle, c.RefCycle-1)}
				}
			}
			t.Fatal("no table1 cell has a reference cycle")
			return nil
		}},
		{"swapped-figure7-samples", si.ExpFigure7, func(t *testing.T, rec *si.RunRecord) []string {
			arm := rec.Figure7.Baseline
			for j := range arm {
				if arm[j] != arm[0] {
					arm[0], arm[j] = arm[j], arm[0]
					return []string{
						fmt.Sprintf("figure7.baseline[0]: %s → %s", num(arm[0]), num(arm[j])),
						fmt.Sprintf("figure7.baseline[%d]: %s → %s", j, num(arm[j]), num(arm[0])),
					}
				}
			}
			t.Fatal("every figure7 baseline sample is equal")
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "baseline")
			var want []string
			writeTestBaseline(t, dir, func(rec *si.RunRecord) {
				if rec.Experiment == tc.exp {
					want = tc.tamper(t, rec)
				}
			})
			out := cmdtest.RunFail(t, "", "check", "-baseline", dir)
			for _, f := range want {
				if !strings.Contains(out, f) {
					t.Errorf("check output lacks the finding %q:\n%s", f, out)
				}
			}
			if !strings.Contains(out, "FAIL: results changed") {
				t.Errorf("check output lacks the FAIL verdict:\n%s", out)
			}
		})
	}
}

// TestCheckFailsOnPartialBaseline: a baseline missing any experiment's
// records is a disabled gate, not a smaller one — check must refuse it.
func TestCheckFailsOnPartialBaseline(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "baseline")
	writeTestBaseline(t, dir, nil)
	if err := os.Remove(filepath.Join(dir, si.ExpTable1+".jsonl")); err != nil {
		t.Fatal(err)
	}
	out := cmdtest.RunFail(t, "", "check", "-baseline", dir)
	if !strings.Contains(out, "want records for all of") {
		t.Errorf("partial-baseline failure lacks the coverage diagnostic:\n%s", out)
	}
}

// TestDiffExitsNonZeroOnRegression: diff is scriptable — any class but
// identical exits non-zero.
func TestDiffExitsNonZeroOnRegression(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	writeTestBaseline(t, dir, nil)
	writeTestBaseline(t, dir, func(rec *si.RunRecord) {
		if rec.Experiment == si.ExpTable1 {
			rec.Table1.Cells[0].Vulnerable = !rec.Table1.Cells[0].Vulnerable
		}
	})
	out := cmdtest.RunFail(t, "", "diff", "-store", dir, "table1@0", "table1@1")
	if !strings.Contains(out, "CHANGED") || !strings.Contains(out, "}.vulnerable: ") {
		t.Errorf("diff output lacks the changed cell:\n%s", out)
	}
}

func TestBaselineSubcommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "baseline")
	out := cmdtest.Run(t, "", "baseline", "-dir", dir)
	for _, exp := range si.ResultExperiments() {
		if !strings.Contains(out, exp) {
			t.Errorf("baseline output missing %s:\n%s", exp, out)
		}
		if _, err := os.Stat(filepath.Join(dir, exp+".jsonl")); err != nil {
			t.Errorf("baseline file for %s: %v", exp, err)
		}
	}
	// Rewriting must be deterministic: a second run is byte-identical.
	before, err := os.ReadFile(filepath.Join(dir, "table1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cmdtest.Run(t, "", "baseline", "-dir", dir)
	after, err := os.ReadFile(filepath.Join(dir, "table1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("regenerating the baseline changed its bytes")
	}
}
