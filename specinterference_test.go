package specinterference_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	si "specinterference"
)

func TestFacadeAssembleAndRun(t *testing.T) {
	prog, err := si.Assemble("movi r1, 20\nmuli r2, r1, 2\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	sys, m, err := si.NewSystem(si.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil memory")
	}
	if err := sys.LoadProgram(0, prog, si.SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if got := sys.Core(0).Reg(2); got != 40 {
		t.Errorf("r2 = %d, want 40", got)
	}
}

func TestFacadeEmulator(t *testing.T) {
	prog := si.MustAssemble("movi r3, 7\naddi r3, r3, 1\nhalt")
	sys, m, err := si.NewSystem(si.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = sys
	res, err := si.Emulate(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[3] != 8 {
		t.Errorf("emulated r3 = %d", res.Regs[3])
	}
}

func TestFacadeSchemes(t *testing.T) {
	names := si.SchemeNames()
	if len(names) < 10 {
		t.Fatalf("only %d schemes", len(names))
	}
	for _, n := range names {
		p, err := si.Scheme(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != n {
			t.Errorf("Scheme(%q).Name = %q", n, p.Name)
		}
	}
	if _, err := si.Scheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestFacadeTrialAndMatrix(t *testing.T) {
	pol, err := si.Scheme("dom")
	if err != nil {
		t.Fatal(err)
	}
	r, err := si.RunTrial(si.TrialSpec{
		Gadget: si.GadgetNPEU, Ordering: si.OrderVDVD,
		Policy: pol, Secret: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) == 0 {
		t.Error("no probe events")
	}
	rec, err := si.RunExperiment(context.Background(), si.ExpTable1, si.RunParams{Schemes: []string{"dom"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	expected := si.ExpectedTable1()
	if len(rec.Table1.Cells) != 7 {
		t.Fatalf("dom matrix has %d cells, want 7", len(rec.Table1.Cells))
	}
	for _, c := range rec.Table1.Cells {
		if want := expected[c.Gadget+"|"+c.Ordering][c.Scheme]; c.Vulnerable != want {
			t.Errorf("%s/%s/%s vulnerable = %v, want %v", c.Scheme, c.Gadget, c.Ordering, c.Vulnerable, want)
		}
	}
	if out := rec.Table1.Format(); !strings.Contains(out, "\nG_NPEU|VD-AD           dom\n") {
		t.Errorf("matrix rendering:\n%s", out)
	}
}

func TestFacadePoCs(t *testing.T) {
	for _, poc := range []*si.PoC{
		si.NewDCachePoC("dom", 0),
		si.NewICachePoC("invisispec-spectre", 0),
		{SchemeName: "invisispec-spectre", Kind: si.MSHRAttack},
	} {
		for secret := 0; secret <= 1; secret++ {
			out, err := poc.RunBit(secret, uint64(secret+1))
			if err != nil {
				t.Fatal(err)
			}
			if !out.OK || out.Decoded != secret {
				t.Errorf("%s: secret %d decoded %d ok=%v", poc.Kind, secret, out.Decoded, out.OK)
			}
		}
	}
}

func TestFacadeFigure7AndChannel(t *testing.T) {
	ctx := context.Background()
	f7, err := si.RunExperiment(ctx, si.ExpFigure7, si.RunParams{Trials: 10, Jitter: 20, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f7.Figure7.Separation <= 0 {
		t.Error("no separation")
	}
	f11, err := si.RunExperiment(ctx, si.ExpFigure11,
		si.RunParams{PoCs: []string{"icache"}, Bits: 4, Reps: []int{1}, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if curve := f11.Figure11.Curves; len(curve) != 1 || len(curve[0].Points) != 1 || curve[0].Points[0].Bps <= 0 {
		t.Errorf("curve = %+v", curve)
	}
	if si.DCacheFigure11() == nil {
		t.Error("nil PoC")
	}
}

func TestFacadeDefenseOverheadAndWorkloads(t *testing.T) {
	if len(si.Workloads()) < 6 {
		t.Error("missing kernels")
	}
	rec, err := si.RunExperiment(context.Background(), si.ExpFigure12,
		si.RunParams{Iters: 100, Schemes: []string{"fence-spectre"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sd := rec.Figure12.Mean["fence-spectre"]; sd < 1.0 {
		t.Errorf("slowdown %f < 1", sd)
	}
}

func TestFacadeTimeline(t *testing.T) {
	prog := si.MustAssemble("movi r1, 3\nsqrt r2, r1\nhalt")
	sys, _, err := si.NewSystem(si.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := si.NewTraceRecorder()
	sys.Core(0).SetTraceHook(rec)
	if err := sys.LoadProgram(0, prog, si.SpecPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000); err != nil {
		t.Fatal(err)
	}
	out := si.RenderTimeline(rec.Records(), si.TimelineOptions{})
	if !strings.Contains(out, "sqrt") {
		t.Errorf("timeline:\n%s", out)
	}
}

// TestFacadeExperimentEngine exercises the engine re-exports: the
// registry lists every results-store experiment, and RunExperiment gives
// the same signature on an explicit backend as on the default one.
func TestFacadeExperimentEngine(t *testing.T) {
	names := si.ExperimentNames()
	for _, exp := range si.ResultExperiments() {
		if !slices.Contains(names, exp) {
			t.Errorf("ExperimentNames() = %v, missing %s", names, exp)
		}
		if _, err := si.LookupExperiment(exp); err != nil {
			t.Errorf("LookupExperiment(%s): %v", exp, err)
		}
	}
	p := si.RunParams{Trials: 2, Jitter: 3, Seed: 5}
	a, err := si.RunExperiment(context.Background(), si.ExpFigure7, p, si.InProcessBackend(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := si.RunExperiment(context.Background(), si.ExpFigure7, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Errorf("hash on 2 workers %.12s != hash on the default backend %.12s", a.Hash, b.Hash)
	}
	if _, err := si.NewExperimentBackendOptions("subprocess", si.ExperimentBackendOptions{Procs: 2}); err != nil {
		t.Errorf("NewExperimentBackendOptions(subprocess): %v", err)
	}
	if _, err := si.NewExperimentBackendOptions("bogus", si.ExperimentBackendOptions{}); err == nil {
		t.Error("NewExperimentBackendOptions accepted a bogus name")
	}
}

func TestFacadeAttackConfig(t *testing.T) {
	cfg := si.AttackConfig()
	if cfg.Cache.Cores != 2 || cfg.Cache.LLC.Ways != 16 {
		t.Error("attack config shape")
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

// TestFacadeDetectLeakErrorNamesCell checks that an error from building
// the cell's victim names the cell, as the detector's own errors do.
func TestFacadeDetectLeakErrorNamesCell(t *testing.T) {
	_, err := si.DetectLeak("dom", si.GadgetRS, si.OrderVDVD)
	if err == nil {
		t.Fatal("DetectLeak accepted G_RS under VD-VD")
	}
	if !strings.Contains(err.Error(), "dom/G_RS/VD-VD/VI") {
		t.Errorf("error %q does not name the cell dom/G_RS/VD-VD/VI", err)
	}
}
