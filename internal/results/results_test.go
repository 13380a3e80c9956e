package results

import (
	"path/filepath"
	"testing"
	"time"

	"specinterference/internal/channel"
	"specinterference/internal/core"
	"specinterference/internal/detect"
	"specinterference/internal/workload"
)

// table1Record seals a two-scheme vulnerability matrix built from
// literal cells: one gadget/ordering column, the unsafe baseline leaking
// and the fence defense protected.
func table1Record(t *testing.T) *Record {
	t.Helper()
	rec, err := NewTable1Record([]core.MatrixCell{
		{Scheme: "unsafe", Gadget: core.GadgetNPEU, Ordering: core.OrderVDVD, Vulnerable: true},
		{Scheme: "fence-spectre", Gadget: core.GadgetNPEU, Ordering: core.OrderVDVD},
	}, []string{"unsafe", "fence-spectre"})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// figure7Record seals a two-trial Figure 7 measurement built from literal
// latencies at the given seed.
func figure7Record(t *testing.T, seed uint64) *Record {
	t.Helper()
	res := core.BuildFigure7Result([]float64{100, 104}, []float64{176, 181})
	rec, err := NewFigure7Record(res, 2, 10, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecordValidate(t *testing.T) {
	rec := table1Record(t)
	if err := rec.Validate(); err != nil {
		t.Fatalf("fresh record invalid: %v", err)
	}

	twoPayloads := *rec
	twoPayloads.Figure7 = &Figure7Payload{}
	if err := twoPayloads.Validate(); err == nil {
		t.Fatal("record with two payloads passed validation")
	}

	wrongName := *rec
	wrongName.Experiment = ExpFigure7
	if err := wrongName.Validate(); err == nil {
		t.Fatal("record with mismatched experiment/payload passed validation")
	}

	tampered := *rec
	cells := append([]Table1Cell(nil), rec.Table1.Cells...)
	cells[0].Vulnerable = !cells[0].Vulnerable
	tampered.Table1 = &Table1Payload{Cells: cells}
	if err := tampered.Validate(); err == nil {
		t.Fatal("tampered payload passed hash validation")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := table1Record(t)
	rec.Stamp(2, 5*time.Millisecond)
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	second := table1Record(t)
	second.Meta.Note = "second"
	if err := s.Append(second); err != nil {
		t.Fatal(err)
	}

	recs, err := s.Load(ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2", len(recs))
	}
	if recs[0].Meta.Workers != 2 || recs[0].Meta.GitRev == "" {
		t.Fatalf("first record lost its metadata: %+v", recs[0].Meta)
	}
	latest, err := s.Latest(ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Meta.Note != "second" {
		t.Fatalf("Latest returned the wrong record: %+v", latest.Meta)
	}
	oldest, err := s.At(ExpTable1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oldest.Meta.Note == "second" {
		t.Fatal("At(0) returned the newest record")
	}
	if _, err := s.At(ExpTable1, 5); err == nil {
		t.Fatal("out-of-range index succeeded")
	}
	if _, err := s.Latest(ExpFigure7); err == nil {
		t.Fatal("Latest on empty history succeeded")
	}
	exps, err := s.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 || exps[0] != ExpTable1 {
		t.Fatalf("Experiments() = %v, want [table1]", exps)
	}
}

func TestParseRef(t *testing.T) {
	for _, tc := range []struct {
		ref  string
		exp  string
		idx  int
		fail bool
	}{
		{ref: "table1", exp: ExpTable1, idx: -1},
		{ref: "figure7@0", exp: ExpFigure7, idx: 0},
		{ref: "figure11@-2", exp: ExpFigure11, idx: -2},
		{ref: "nonsense", fail: true},
		{ref: "table1@x", fail: true},
		{ref: "table1@1junk", fail: true},
	} {
		exp, idx, err := ParseRef(tc.ref)
		if tc.fail {
			if err == nil {
				t.Errorf("ParseRef(%q) succeeded, want error", tc.ref)
			}
			continue
		}
		if err != nil || exp != tc.exp || idx != tc.idx {
			t.Errorf("ParseRef(%q) = (%q, %d, %v), want (%q, %d)", tc.ref, exp, idx, err, tc.exp, tc.idx)
		}
	}
}

// TestDiffWorkerCountIdentical is the store's core guarantee: run
// metadata stays out of the signature, so equal payloads stamped with
// different worker counts and wall times diff as identical. (That the
// payloads themselves are equal at any worker count and on any backend
// is TestBackendEquivalence's job in internal/experiment.)
func TestDiffWorkerCountIdentical(t *testing.T) {
	serial := table1Record(t)
	serial.Stamp(1, time.Second)
	parallel := table1Record(t)
	parallel.Stamp(4, time.Millisecond)

	if serial.Hash != parallel.Hash {
		t.Fatalf("hashes differ across worker counts: %.12s vs %.12s", serial.Hash, parallel.Hash)
	}
	d := Diff(serial, parallel)
	if d.Class != Identical || len(d.Findings) != 0 {
		t.Fatalf("diff across worker counts = %s %v, want identical", d.Class, d.Findings)
	}

	f7a := figure7Record(t, 1)
	f7a.Stamp(1, time.Second)
	f7b := figure7Record(t, 1)
	f7b.Stamp(3, time.Millisecond)
	if d := Diff(f7a, f7b); d.Class != Identical {
		t.Fatalf("figure7 diff across worker counts = %s %v, want identical", d.Class, d.Findings)
	}
}

// TestDiffMatrixFlipRegression: flipping one (gadget, scheme) cell
// vulnerable↔protected must classify as a regression.
func TestDiffMatrixFlipRegression(t *testing.T) {
	old := table1Record(t)

	flipped := *old
	cells := append([]Table1Cell(nil), old.Table1.Cells...)
	cells[0].Vulnerable = !cells[0].Vulnerable
	flipped.Table1 = &Table1Payload{Cells: cells}
	if _, err := (&flipped).seal(); err != nil {
		t.Fatal(err)
	}

	d := Diff(old, &flipped)
	if d.Class != Regression {
		t.Fatalf("diff after cell flip = %s %v, want regression", d.Class, d.Findings)
	}
	if len(d.Findings) != 1 || d.Findings[0].Class != Regression {
		t.Fatalf("want exactly one regression finding, got %v", d.Findings)
	}
}

// concordanceRecord seals a two-scheme agreement grid built from literal
// cells, shaped like table1Record's: unsafe leaking, the fence protected.
func concordanceRecord(t *testing.T) *Record {
	t.Helper()
	rec, err := NewConcordanceRecord([]detect.Cell{
		{Scheme: "unsafe", Gadget: core.GadgetNPEU, Ordering: core.OrderVDVD,
			Empirical: true, Detector: true, Mechanism: detect.MechNPEU, Match: true},
		{Scheme: "fence-spectre", Gadget: core.GadgetNPEU, Ordering: core.OrderVDVD,
			Mechanism: detect.MechNoSpecIssue, Match: true},
	}, []string{"unsafe", "fence-spectre"})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestDiffGridCells drives both grid diffs through one sealed edit each:
// a flipped verdict is a regression, a changed mechanism is drift, and a
// cell dropped from either side makes the records incomparable. Every
// edit must yield exactly the one named finding.
func TestDiffGridCells(t *testing.T) {
	dropFirst := func(r *Record) {
		if r.Table1 != nil {
			r.Table1.Cells = r.Table1.Cells[1:]
		} else {
			r.Concordance.Cells = r.Concordance.Cells[1:]
		}
	}
	for _, tc := range []struct {
		name   string
		record func(*testing.T) *Record
		edit   func(*Record)
		onOld  bool // edit the old record instead of the new one
		want   DiffClass
		detail string
	}{
		{"table1/flip", table1Record, func(r *Record) { r.Table1.Cells[0].Vulnerable = false }, false,
			Regression, "matrix cell unsafe under G_NPEU/VD-VD/VI flipped vulnerable → protected"},
		{"table1/drop-new", table1Record, dropFirst, false,
			Incomparable, "cell unsafe/G_NPEU/VD-VD/VI missing from new record"},
		{"table1/drop-old", table1Record, dropFirst, true,
			Incomparable, "cell unsafe/G_NPEU/VD-VD/VI missing from old record"},
		{"concordance/flip", concordanceRecord, func(r *Record) {
			c := &r.Concordance.Cells[1]
			c.Empirical, c.Detector = true, true
		}, false, Regression, "cell fence-spectre/G_NPEU/VD-VD/VI changed: empirical false→true, detector false→true (match true→true)"},
		{"concordance/mechanism", concordanceRecord, func(r *Record) { r.Concordance.Cells[0].Mechanism = detect.MechMSHR }, false,
			Drift, `cell unsafe/G_NPEU/VD-VD/VI mechanism "npeu-contention" → "mshr-exhaustion"`},
		{"concordance/drop-new", concordanceRecord, dropFirst, false,
			Incomparable, "cell unsafe/G_NPEU/VD-VD/VI missing from new record"},
		{"concordance/drop-old", concordanceRecord, dropFirst, true,
			Incomparable, "cell unsafe/G_NPEU/VD-VD/VI missing from old record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, new := tc.record(t), tc.record(t)
			edited := new
			if tc.onOld {
				edited = old
			}
			tc.edit(edited)
			if _, err := edited.seal(); err != nil {
				t.Fatal(err)
			}
			d := Diff(old, new)
			if d.Class != tc.want || len(d.Findings) != 1 || d.Findings[0].Detail != tc.detail {
				t.Fatalf("diff = %s %v, want %s with the one finding %q", d.Class, d.Findings, tc.want, tc.detail)
			}
		})
	}
}

func TestDiffIncomparable(t *testing.T) {
	table := table1Record(t)
	figure := figure7Record(t, 1)
	if d := Diff(table, figure); d.Class != Incomparable {
		t.Fatalf("cross-experiment diff = %s, want incomparable", d.Class)
	}

	otherSeed := figure7Record(t, 2)
	if d := Diff(figure, otherSeed); d.Class != Incomparable {
		t.Fatalf("cross-parameter diff = %s, want incomparable", d.Class)
	}
}

// synthetic payload diffs: thresholds fire exactly as documented.
func sealedFigure7(t *testing.T, sep, overlap float64) *Record {
	t.Helper()
	r := &Record{
		Experiment: ExpFigure7,
		Params:     Params{Trials: 2, Jitter: 1, Seed: 1},
		Figure7: &Figure7Payload{
			Baseline: []float64{100, 100}, Interference: []float64{100 + sep, 100 + sep},
			Separation: sep, Overlap: overlap,
		},
	}
	if _, err := r.seal(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDiffFigure7Thresholds(t *testing.T) {
	base := sealedFigure7(t, 80, 0.05)
	if d := Diff(base, sealedFigure7(t, 70, 0.08)); d.Class != Drift {
		t.Fatalf("small separation move = %s %v, want drift", d.Class, d.Findings)
	}
	if d := Diff(base, sealedFigure7(t, 10, 0.05)); d.Class != Regression {
		t.Fatalf("separation collapse = %s, want regression", d.Class)
	}
	if d := Diff(base, sealedFigure7(t, 80, 0.9)); d.Class != Regression {
		t.Fatalf("overlap explosion = %s, want regression", d.Class)
	}
	// A sign inversion is a full collapse of the interference effect even
	// when the magnitudes are close.
	if d := Diff(base, sealedFigure7(t, -65, 0.05)); d.Class != Regression {
		t.Fatalf("separation sign inversion = %s %v, want regression", d.Class, d.Findings)
	}
}

// TestDiffRecomputesHashes: a fixture whose hash field was stripped (or
// never written) must still diff as identical against a byte-identical
// payload — the comparison trusts recomputed signatures, not stored
// strings.
func TestDiffRecomputesHashes(t *testing.T) {
	a := sealedFigure7(t, 80, 0.05)
	b := sealedFigure7(t, 80, 0.05)
	b.Hash = ""
	if d := Diff(b, a); d.Class != Identical || len(d.Findings) != 0 {
		t.Fatalf("diff with a hashless old record = %s %v, want identical", d.Class, d.Findings)
	}
	if d := Diff(a, b); d.Class != Identical {
		t.Fatalf("diff with a hashless new record = %s, want identical", d.Class)
	}
}

func sealedFigure11(t *testing.T, errorRates ...float64) *Record {
	t.Helper()
	reps := make([]int, len(errorRates))
	pts := make([]channel.Result, len(errorRates))
	for i, er := range errorRates {
		reps[i] = 1 // duplicate reps values are legal: seeds differ by position
		pts[i] = channel.Result{Reps: 1, Bits: 4, ErrorRate: er, CyclesPerBit: 2000, Bps: 1e6}
	}
	r := &Record{
		Experiment: ExpFigure11,
		Params:     Params{PoCs: []string{"dcache"}, Bits: 4, Reps: reps, Seed: 1},
		Figure11: &Figure11Payload{Curves: []Figure11Curve{{
			PoC: "dcache", Scheme: "invisispec-spectre", Points: pts,
		}}},
	}
	if _, err := r.seal(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDiffFigure11Thresholds(t *testing.T) {
	base := sealedFigure11(t, 0.1)
	if d := Diff(base, sealedFigure11(t, 0.2)); d.Class != Drift {
		t.Fatalf("small error-rate move = %s %v, want drift", d.Class, d.Findings)
	}
	if d := Diff(base, sealedFigure11(t, 0.5)); d.Class != Regression {
		t.Fatalf("error-rate collapse = %s, want regression", d.Class)
	}
	// Duplicate reps values pair positionally: a collapse in the second
	// duplicate point must not hide behind the healthy first one.
	if d := Diff(sealedFigure11(t, 0.1, 0.1), sealedFigure11(t, 0.1, 0.6)); d.Class != Regression {
		t.Fatalf("collapse in a duplicate-reps point = %s, want regression", d.Class)
	}
}

func sealedFigure12(t *testing.T, slowdown float64) *Record {
	t.Helper()
	r := &Record{
		Experiment: ExpFigure12,
		Params:     Params{Iters: 10, Schemes: []string{"fence-spectre"}},
		Figure12: &workload.EvalResult{
			Rows: []workload.EvalRow{{
				Workload: "stream", BaselineCycles: 1000, BaselineIPC: 1,
				Slowdown: map[string]float64{"fence-spectre": slowdown},
			}},
			Mean:    map[string]float64{"fence-spectre": slowdown},
			Geomean: map[string]float64{"fence-spectre": slowdown},
		},
	}
	if _, err := r.seal(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDiffFigure12Thresholds(t *testing.T) {
	base := sealedFigure12(t, 1.6)
	if d := Diff(base, sealedFigure12(t, 1.7)); d.Class != Drift {
		t.Fatalf("small slowdown move = %s %v, want drift", d.Class, d.Findings)
	}
	if d := Diff(base, sealedFigure12(t, 4.0)); d.Class != Regression {
		t.Fatalf("slowdown explosion = %s, want regression", d.Class)
	}
}

func TestGitRevision(t *testing.T) {
	if rev := GitRevision(); rev == "" {
		t.Fatal("GitRevision returned an empty string")
	}
}
