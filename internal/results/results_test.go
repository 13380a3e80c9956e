package results

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"specinterference/internal/channel"
	"specinterference/internal/core"
	"specinterference/internal/detect"
	"specinterference/internal/workload"
)

// table1Record seals a two-scheme vulnerability matrix built from
// literal cells: one gadget/ordering column with calibrated reference
// cycles, the unsafe baseline leaking and the fence defense protected.
func table1Record(t *testing.T) *Record {
	t.Helper()
	rec, err := NewTable1Record([]core.MatrixCell{
		{Scheme: "unsafe", Gadget: core.GadgetNPEU, Ordering: core.OrderVDAD, Vulnerable: true, RefCycle: 231},
		{Scheme: "fence-spectre", Gadget: core.GadgetNPEU, Ordering: core.OrderVDAD, RefCycle: 240},
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

// TestTable1Format pins the Table 1 text rendering: one line per
// gadget|ordering in first-seen order, listing the vulnerable schemes in
// cell order, "-" for a combination no scheme leaks on.
func TestTable1Format(t *testing.T) {
	p := &Table1Payload{Cells: []Table1Cell{
		{Scheme: "unsafe", Gadget: "G_NPEU", Ordering: "VD-AD", Vulnerable: true},
		{Scheme: "dom", Gadget: "G_NPEU", Ordering: "VD-AD", Vulnerable: true},
		{Scheme: "fence-spectre", Gadget: "G_NPEU", Ordering: "VD-AD"},
		{Scheme: "unsafe", Gadget: "G_MSHR", Ordering: "VD-VD/VI"},
		{Scheme: "dom", Gadget: "G_MSHR", Ordering: "VD-VD/VI"},
		{Scheme: "fence-spectre", Gadget: "G_MSHR", Ordering: "VD-VD/VI"},
		{Scheme: "unsafe", Gadget: "G_RS", Ordering: "VI-AD", Vulnerable: true},
	}}
	want := "Gadget|Ordering        Vulnerable schemes\n" +
		"G_NPEU|VD-AD           unsafe, dom\n" +
		"G_MSHR|VD-VD/VI        -\n" +
		"G_RS|VI-AD             unsafe\n"
	if got := p.Format(); got != want {
		t.Errorf("Format:\n%s\nwant:\n%s", got, want)
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

// TestParamsSignature pins the params signature to the SHA-256 of the
// params' JSON, the value remote journals store as params_sig, and
// checks that every field counts: a field left out of a field-by-field
// comparison would make records at different parameters comparable.
func TestParamsSignature(t *testing.T) {
	sum := sha256.Sum256([]byte(`{"trials":8,"jitter":10,"seed":1}`))
	if got, want := (Params{Trials: 8, Jitter: 10, Seed: 1}).Signature(), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Signature() = %s, want the SHA-256 of the params JSON, %s", got, want)
	}
	zero := Params{}.Signature()
	for i := range reflect.TypeOf(Params{}).NumField() {
		var p Params
		f := reflect.ValueOf(&p).Elem().Field(i)
		if f.Kind() == reflect.Slice {
			f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
		} else {
			f.Set(reflect.ValueOf(1).Convert(f.Type()))
		}
		if p.Signature() == zero {
			t.Errorf("setting Params.%s leaves the signature unchanged", reflect.TypeOf(p).Field(i).Name)
		}
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

// TestDiffRecomputesHashes: a fixture whose hash field was stripped (or
// never written) must still diff as identical against a byte-identical
// payload — the comparison trusts the canonical bytes, not stored
// strings.
func TestDiffRecomputesHashes(t *testing.T) {
	a := figure7Record(t, 1)
	b := figure7Record(t, 1)
	b.Hash = ""
	if d := Diff(b, a); d.Class != Identical || len(d.Findings) != 0 {
		t.Fatalf("diff with a hashless old record = %s %v, want identical", d.Class, d.Findings)
	}
	if d := Diff(a, b); d.Class != Identical {
		t.Fatalf("diff with a hashless new record = %s, want identical", d.Class)
	}
}

// figure11Record seals one single-point Figure 11 curve.
func figure11Record(t *testing.T) *Record {
	t.Helper()
	rec, err := NewFigure11Record([]Figure11Curve{{
		PoC: "dcache", Scheme: "invisispec-spectre",
		Points: []channel.Result{{Reps: 1, Bits: 4, Errors: 1, ErrorRate: 0.25, CyclesPerBit: 2589.5, Bps: 1390229.7740876616}},
	}}, 4, []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// figure12Record seals a one-workload, one-scheme Figure 12 sweep.
func figure12Record(t *testing.T) *Record {
	t.Helper()
	rec, err := NewFigure12Record(&workload.EvalResult{
		Rows: []workload.EvalRow{{
			Workload: "stream", BaselineCycles: 2507, BaselineIPC: 0.3366573593936976,
			Slowdown: map[string]float64{"fence-spectre": 1.0063821300358995},
		}},
		Mean:    map[string]float64{"fence-spectre": 1.0063821300358995},
		Geomean: map[string]float64{"fence-spectre": 1.0063821300358995},
	}, 10, []string{"fence-spectre"})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// sealedEdit is one edit to a freshly sealed record, re-sealed so its
// hash is valid, and the exact findings Diff must report for it.
type sealedEdit struct {
	name   string
	record func(*testing.T) *Record
	edit   func(*Record)
	onOld  bool // edit the old record instead of the new one
	want   []string
}

// runSealedEdits requires each edit to diff as Changed with exactly its
// findings.
func runSealedEdits(t *testing.T, cases []sealedEdit) {
	t.Helper()
	for _, tc := range cases {
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
			if d.Class != Changed || !slices.Equal(d.Findings, tc.want) {
				t.Fatalf("diff = %s %q, want changed %q", d.Class, d.Findings, tc.want)
			}
		})
	}
}

// TestDiffMatrixFlipRegression: a Table 1 cell that flips from
// vulnerable to protected, the regression the gate exists for, is
// Changed with the one finding that names the cell. The flipped record
// shares no cell storage with the old one.
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
	want := []string{"table1.cells[0]{gadget=G_NPEU,ordering=VD-AD,scheme=unsafe}.vulnerable: true → false"}
	if d.Class != Changed || !slices.Equal(d.Findings, want) {
		t.Fatalf("diff after cell flip = %s %q, want changed %q", d.Class, d.Findings, want)
	}
}

// TestDiffGridCells: in the two scheme × gadget × ordering grids, a
// flipped verdict, a changed mechanism and a cell missing from either
// record are each Changed, named by the cell's labelled path or by the
// grid's length.
func TestDiffGridCells(t *testing.T) {
	dropLast := func(r *Record) {
		if r.Table1 != nil {
			r.Table1.Cells = r.Table1.Cells[:1]
		} else {
			r.Concordance.Cells = r.Concordance.Cells[:1]
		}
	}
	runSealedEdits(t, []sealedEdit{
		{name: "table1/flip", record: table1Record, edit: func(r *Record) { r.Table1.Cells[1].Vulnerable = true }, want: []string{
			"table1.cells[1]{gadget=G_NPEU,ordering=VD-AD,scheme=fence-spectre}.vulnerable: false → true",
		}},
		{name: "table1/drop-new", record: table1Record, edit: dropLast, want: []string{
			"len(table1.cells): 2 → 1",
		}},
		{name: "table1/drop-old", record: table1Record, edit: dropLast, onOld: true, want: []string{
			"len(table1.cells): 1 → 2",
		}},
		{name: "concordance/flip", record: concordanceRecord, edit: func(r *Record) {
			c := &r.Concordance.Cells[1]
			c.Empirical, c.Detector = true, true
		}, want: []string{
			"concordance.cells[1]{gadget=G_NPEU,mechanism=no-speculative-issue,ordering=VD-VD/VI,scheme=fence-spectre}.detector: false → true",
			"concordance.cells[1]{gadget=G_NPEU,mechanism=no-speculative-issue,ordering=VD-VD/VI,scheme=fence-spectre}.empirical: false → true",
		}},
		{name: "concordance/mechanism", record: concordanceRecord, edit: func(r *Record) { r.Concordance.Cells[0].Mechanism = detect.MechMSHR }, want: []string{
			`concordance.cells[0]{gadget=G_NPEU,mechanism=npeu-contention,ordering=VD-VD/VI,scheme=unsafe}.mechanism: "npeu-contention" → "mshr-exhaustion"`,
		}},
		{name: "concordance/drop-new", record: concordanceRecord, edit: dropLast, want: []string{
			"len(concordance.cells): 2 → 1",
		}},
		{name: "concordance/drop-old", record: concordanceRecord, edit: dropLast, onOld: true, want: []string{
			"len(concordance.cells): 1 → 2",
		}},
	})
}

// TestDiffChangedFindings: Diff has no tolerance. Each sealed edit, down
// to a reference cycle moved by one or two samples swapped within an arm
// (a shard placed at the wrong index), is Changed, and the report names
// exactly the moved values by their path in the canonical document.
func TestDiffChangedFindings(t *testing.T) {
	runSealedEdits(t, []sealedEdit{
		{name: "moved-ref-cycle", record: table1Record, edit: func(r *Record) { r.Table1.Cells[0].RefCycle = 230 }, want: []string{
			"table1.cells[0]{gadget=G_NPEU,ordering=VD-AD,scheme=unsafe}.ref_cycle: 231 → 230",
		}},
		{name: "zeroed-ref-cycle", record: table1Record, edit: func(r *Record) { r.Table1.Cells[0].RefCycle = 0 }, want: []string{
			"table1.cells[0]{gadget=G_NPEU,ordering=VD-AD,scheme=unsafe}.ref_cycle: 231 → absent",
		}},
		{name: "swapped-figure7-sample", record: func(t *testing.T) *Record { return figure7Record(t, 1) }, edit: func(r *Record) {
			b := r.Figure7.Baseline
			b[0], b[1] = b[1], b[0]
		}, want: []string{
			"figure7.baseline[0]: 100 → 104",
			"figure7.baseline[1]: 104 → 100",
		}},
		{name: "moved-slowdown", record: figure12Record, edit: func(r *Record) { r.Figure12.Rows[0].Slowdown["fence-spectre"] = 1.0063821300358997 }, want: []string{
			"figure12.rows[0]{workload=stream}.slowdown.fence-spectre: 1.0063821300358995 → 1.0063821300358997",
		}},
		{name: "moved-figure11-point", record: figure11Record, edit: func(r *Record) { r.Figure11.Curves[0].Points[0].CyclesPerBit = 2590 }, want: []string{
			"figure11.curves[0]{poc=dcache,scheme=invisispec-spectre}.points[0].cycles_per_bit: 2589.5 → 2590",
		}},
	})
}

// TestDiffCapsFindings: a wholesale change lists the first maxFindings
// moved values and counts the rest in one closing line.
func TestDiffCapsFindings(t *testing.T) {
	arm := func(base float64) []float64 {
		xs := make([]float64, maxFindings+5)
		for i := range xs {
			xs[i] = base + float64(i)
		}
		return xs
	}
	seal := func(base float64) *Record {
		rec, err := NewFigure7Record(core.BuildFigure7Result(arm(base), arm(200)), maxFindings+5, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	d := Diff(seal(100), seal(101))
	// Every baseline sample moved, and so did the separation.
	if d.Class != Changed || len(d.Findings) != maxFindings+1 {
		t.Fatalf("diff = %s with %d findings, want changed with %d", d.Class, len(d.Findings), maxFindings+1)
	}
	if d.Findings[0] != "figure7.baseline[0]: 100 → 101" {
		t.Errorf("first finding %q", d.Findings[0])
	}
	if last := d.Findings[maxFindings]; last != "… and 6 more" {
		t.Errorf("closing line %q, want %q", last, "… and 6 more")
	}
}

func TestGitRevision(t *testing.T) {
	if rev := GitRevision(); rev == "" {
		t.Fatal("GitRevision returned an empty string")
	}
}
