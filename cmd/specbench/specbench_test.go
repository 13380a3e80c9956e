package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// TestMain lets the test binary serve as the driver's regeneration child
// and as a backend worker, as the specbench binary does.
func TestMain(m *testing.M) {
	experiment.RunWorkerIfRequested()
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// tinyWorkloads is the workload table at smoke-test size: 8 trials per
// arm at jitter 10, 120 iterations, 2 schemes, one regeneration a round.
func tinyWorkloads() []*workloadSpec {
	table := workloads(1)
	for _, w := range table {
		w.perRound = 1
		for i := range w.steps {
			p := &w.steps[i].Params
			switch w.steps[i].Exp {
			case results.ExpFigure7:
				p.Trials, p.Jitter = 8, 10
			case results.ExpFigure12:
				p.Iters = 120
			default:
				p.Schemes = []string{"unsafe", "dom"}
			}
		}
	}
	return table
}

func testDriver(t *testing.T, selected []*workloadSpec, trace bool) *driver {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &driver{exe: exe, table: tinyWorkloads(), selected: selected, rounds: 1, trace: trace, log: os.Stderr}
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func readDoc(t *testing.T, path string) *resultDoc {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := &resultDoc{}
	if err := json.Unmarshal(raw, doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// TestSmoke runs one traced round of every workload at tiny size and
// checks that every metric BENCHMARK.json names comes out finite, with
// no failed regeneration.
func TestSmoke(t *testing.T) {
	table := tinyWorkloads()
	d := testDriver(t, table, true)
	dir := t.TempDir()
	out, tracePath := filepath.Join(dir, "result.json"), filepath.Join(dir, "trace.json")
	var stdout bytes.Buffer
	if code := d.main(1, tracePath, out, &stdout); code != 0 {
		t.Fatalf("exit %d\n%s", code, stdout.Bytes())
	}
	doc := readDoc(t, out)
	bench := readBenchmark(t)
	for _, w := range bench.Workloads {
		r := doc.Results[w.Name]
		if r == nil {
			t.Fatalf("workload %s missing from the result", w.Name)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d regenerations failed", w.Name, r.Failed, r.Attempted)
		}
		for _, m := range bench.EndToEnd {
			if s := r.Metrics[m.Name]; s == nil || s.N == 0 || !finite(s.Median) || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s missing, empty or not positive: %+v", w.Name, m.Name, s)
			}
		}
		for _, m := range bench.PerLayer {
			if v, ok := r.Layers[m.Name]; !ok || !finite(v) {
				t.Errorf("%s: per-layer metric %s missing or not finite (%v)", w.Name, m.Name, v)
			}
		}
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace file: %d events, err %v", len(trace.TraceEvents), err)
	}
}

// TestCorruptHashFails checks the correctness check has teeth: a wrong
// expected hash fails every regeneration and the run exits non-zero.
func TestCorruptHashFails(t *testing.T) {
	matrix := tinyWorkloads()[0]
	d := testDriver(t, []*workloadSpec{matrix}, false)
	d.expect = map[string]string{matrix.steps[0].key(): strings.Repeat("0", 64)}
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout bytes.Buffer
	if code := d.main(1, "", out, &stdout); code == 0 {
		t.Fatalf("exit 0 with a corrupted expected hash\n%s", stdout.Bytes())
	}
	r := readDoc(t, out).Results[matrix.name]
	if r.Attempted == 0 || r.Failed != r.Attempted {
		t.Fatalf("%d of %d regenerations failed, want all", r.Failed, r.Attempted)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct {
		t.Fatalf("result line %q: correct must be false (err %v)", lines[len(lines)-1], err)
	}
}

// TestBenchmarkFileMatchesTables guards against drift: the workloads and
// metrics in BENCHMARK.json and in this program's tables must match both
// ways.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b := readBenchmark(t)
	want, got := map[string]string{}, map[string]string{}
	for _, w := range workloads(1) {
		want["workload "+w.name] = w.why
	}
	for _, m := range endToEnd {
		want["end_to_end "+m.name] = m.unit + " lower " + strconv.FormatFloat(m.bound, 'g', -1, 64)
	}
	for _, m := range perLayer {
		want["per_layer "+m.name] = m.unit + " " + m.better
	}
	for _, w := range b.Workloads {
		got["workload "+w.Name] = w.Why
	}
	for _, m := range b.EndToEnd {
		got["end_to_end "+m.Name] = m.Unit + " " + m.Better + " " + strconv.FormatFloat(m.Bound, 'g', -1, 64)
	}
	for _, m := range b.PerLayer {
		got["per_layer "+m.Name] = m.Unit + " " + m.Better
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: BENCHMARK.json has %q, the program %q", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: in BENCHMARK.json, not in the program", k)
		}
	}
}

// TestCalibrationImportsNoModulePackage keeps the calibration kernel out
// of reach of any change to the module's packages.
func TestCalibrationImportsNoModulePackage(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "calib.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "specinterference") {
			t.Errorf("calib.go imports module package %s", path)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values of Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// doc is a one-workload, one-metric result file for the compare tests.
func doc(samples ...float64) *resultDoc {
	return &resultDoc{Results: map[string]*workloadResult{
		"w": {Metrics: map[string]*summary{"wall_s": summarize("s", samples)}},
	}}
}

func verdict(t *testing.T, parents, changes []*resultDoc) string {
	t.Helper()
	for _, r := range compareDocs(parents, changes) {
		if r.metric == "wall_s" {
			return r.verdict
		}
	}
	t.Fatal("no wall_s row")
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scaled := func(k float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * k
		}
		return out
	}
	one := func(xs []float64) []*resultDoc { return []*resultDoc{doc(xs...)} }
	if v := verdict(t, one(steady), one(scaled(1.05))); v != verdictWithin {
		t.Errorf("5%% slower: %s, want %s", v, verdictWithin)
	}
	if v := verdict(t, one(steady), one(scaled(1.5))); v != verdictRegressed {
		t.Errorf("50%% slower: %s, want %s", v, verdictRegressed)
	}
	wide := []float64{0.5, 1.5, 0.7, 1.3, 1.0, 0.8}
	if v := verdict(t, one(wide), one(wide)); v != verdictUnresolved {
		t.Errorf("spread wider than the bound: %s, want %s", v, verdictUnresolved)
	}

	var parents, changes []*resultDoc
	for i := 0; i < minGainPairs; i++ {
		parents = append(parents, doc(scaled(1+0.001*float64(i))...))
		changes = append(changes, doc(scaled(0.9)...))
	}
	if v := verdict(t, parents, changes); v != verdictGain {
		t.Errorf("10 pairs won 10/10 by 10%%: %s, want %s", v, verdictGain)
	}
	if v := verdict(t, parents[:minGainPairs-1], changes[:minGainPairs-1]); v != verdictWithin {
		t.Errorf("9 pairs: %s, want %s", v, verdictWithin)
	}
}
