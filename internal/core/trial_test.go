package core

import (
	"testing"

	"specinterference/internal/schemes"
)

func mustTrial(t *testing.T, spec TrialSpec) *TrialResult {
	t.Helper()
	r, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNPEUReordersLoadsOnUnsafe(t *testing.T) {
	r0 := mustTrial(t, TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 0})
	r1 := mustTrial(t, TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1})
	if len(r0.Events) != 2 || len(r1.Events) != 2 {
		t.Fatalf("events = %d/%d, want 2 each", len(r0.Events), len(r1.Events))
	}
	aLine := r0.Events[0].Line
	if r0.Events[0].Line == r1.Events[0].Line {
		t.Errorf("secret did not flip the A/B order: %s vs %s", r0.Signature(), r1.Signature())
	}
	// secret=0: A first (no interference); secret=1: B first.
	if aLine != r0.Layout.AAddr-(r0.Layout.AAddr%64) && aLine != r0.Layout.AAddr {
		t.Logf("first line %#x (layout A %#x)", aLine, r0.Layout.AAddr)
	}
}

func TestNPEUInterferenceDelaysA(t *testing.T) {
	r0 := mustTrial(t, TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 0})
	r1 := mustTrial(t, TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1})
	if r1.SecretLineCycle <= r0.SecretLineCycle {
		t.Errorf("interference did not delay A: %d vs %d", r0.SecretLineCycle, r1.SecretLineCycle)
	}
	// The delay should be roughly FChain extra EU occupancies.
	delay := r1.SecretLineCycle - r0.SecretLineCycle
	if delay < 30 || delay > 200 {
		t.Errorf("implausible interference delay %d", delay)
	}
}

func TestMSHRGadgetExhaustsMSHRs(t *testing.T) {
	pol, _ := schemes.ByName("invisispec-spectre")
	r1 := mustTrial(t, TrialSpec{Gadget: GadgetMSHR, Ordering: OrderVDVD, Policy: pol, Secret: 1})
	if r1.VictimStats.MSHRRetries == 0 {
		t.Error("secret=1 should exhaust MSHRs and force retries")
	}
	pol, _ = schemes.ByName("invisispec-spectre")
	r0 := mustTrial(t, TrialSpec{Gadget: GadgetMSHR, Ordering: OrderVDVD, Policy: pol, Secret: 0})
	if r0.VictimStats.MSHRRetries >= r1.VictimStats.MSHRRetries {
		t.Errorf("MSHR retries should be secret-dependent: %d vs %d",
			r0.VictimStats.MSHRRetries, r1.VictimStats.MSHRRetries)
	}
}

func TestGIRSBackThrottlesFrontend(t *testing.T) {
	pol, _ := schemes.ByName("invisispec-spectre")
	r1 := mustTrial(t, TrialSpec{Gadget: GadgetRS, Ordering: OrderVIAD, Policy: pol, Secret: 1})
	if r1.VictimStats.RSFullStallCycles == 0 {
		t.Error("secret=1 should fill the RS and stall dispatch")
	}
	if r1.SecretLineCycle >= 0 {
		t.Error("secret=1 must suppress the target-line fetch")
	}
	pol, _ = schemes.ByName("invisispec-spectre")
	r0 := mustTrial(t, TrialSpec{Gadget: GadgetRS, Ordering: OrderVIAD, Policy: pol, Secret: 0})
	if r0.SecretLineCycle < 0 {
		t.Error("secret=0 must fetch the target line")
	}
}

func TestTrialDeterminism(t *testing.T) {
	spec := TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Jitter: 50, Seed: 99}
	a := mustTrial(t, spec)
	b := mustTrial(t, spec)
	if a.Signature() != b.Signature() || a.SecretLineCycle != b.SecretLineCycle {
		t.Error("equal seeds must give identical trials")
	}
	spec.Seed = 100
	c := mustTrial(t, spec)
	_ = c // different seed may or may not change the outcome; just must run
}

func TestTrialRejectsBadSecret(t *testing.T) {
	_, err := RunTrial(TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 2})
	if err == nil {
		t.Error("secret=2 accepted")
	}
}

func TestTrialVictimAlwaysSquashes(t *testing.T) {
	// Mistraining must actually cause the mis-speculation the gadget rides.
	for _, g := range []Gadget{GadgetNPEU, GadgetMSHR} {
		r := mustTrial(t, TrialSpec{Gadget: g, Ordering: OrderVDVD, Secret: 1})
		if r.VictimStats.Squashes == 0 {
			t.Errorf("%s: victim never mis-speculated", g)
		}
	}
}

func TestTrialArchitecturalCleanliness(t *testing.T) {
	// The victim must halt having retired only correct-path work; the
	// secret must never reach architectural state.
	r := mustTrial(t, TrialSpec{Gadget: GadgetNPEU, Ordering: OrderVDVD, Secret: 1, Trace: true})
	for _, rec := range r.Records {
		if rec.Squashed {
			continue
		}
		if rec.PC > r.Victim.BranchPC+1 && rec.PC < r.Victim.Prog.Symbols["done"] {
			t.Errorf("gadget instruction at pc %d retired", rec.PC)
		}
	}
}

func TestTable1VulnerabilityMatrix(t *testing.T) {
	expected := ExpectedTable1()
	for _, combo := range Combos() {
		g := combo[0].(Gadget)
		ord := combo[1].(Ordering)
		for _, name := range schemes.Names() {
			name := name
			t.Run(g.String()+"/"+ord.String()+"/"+name, func(t *testing.T) {
				cell, err := Classify(name, g, ord)
				if err != nil {
					t.Fatal(err)
				}
				want := expected[key(g, ord)][name]
				if cell.Vulnerable != want {
					t.Errorf("vulnerable = %v, want %v (sig0=%q sig1=%q)",
						cell.Vulnerable, want, cell.Sig0, cell.Sig1)
				}
			})
		}
	}
}

func TestVulnerabilityMatrixDriver(t *testing.T) {
	cells := serialMatrix(t, []string{"unsafe", "dom", "fence-spectre"})
	if len(cells) != len(Combos())*3 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Scheme == "fence-spectre" && c.Vulnerable {
			t.Errorf("fence defense reported vulnerable at %s/%s", c.Gadget, c.Ordering)
		}
	}
}

func TestFenceDefensesNeverVulnerable(t *testing.T) {
	for _, name := range []string{"fence-spectre", "fence-futuristic",
		"fence-spectre-ideal", "fence-futuristic-ideal"} {
		for _, combo := range Combos() {
			cell, err := Classify(name, combo[0].(Gadget), combo[1].(Ordering))
			if err != nil {
				t.Fatal(err)
			}
			if cell.Vulnerable {
				t.Errorf("%s vulnerable to %s/%s", name, cell.Gadget, cell.Ordering)
			}
		}
	}
}

func TestFigure7Separation(t *testing.T) {
	r := BuildFigure7Result(serialFigure7Latencies(t, 30, 30, 7))
	if len(r.Baseline) != 30 || len(r.Interference) != 30 {
		t.Fatalf("arm sizes %d/%d", len(r.Baseline), len(r.Interference))
	}
	// The paper's Figure 7 shows ~80 cycles of separation with essentially
	// disjoint distributions; our scaled version must at least separate by
	// several EU occupancies and overlap very little.
	if r.Separation < 30 {
		t.Errorf("separation = %.1f cycles, want >= 30", r.Separation)
	}
	if r.Overlap > 0.2 {
		t.Errorf("overlap = %.2f, want nearly disjoint", r.Overlap)
	}
	if r.BaseHist.Render(40) == "" {
		t.Error("histogram did not render")
	}
}

func TestFigure7Validation(t *testing.T) {
	if _, err := Figure7Shards(0); err == nil {
		t.Error("zero trials accepted")
	}
}
