package experiment_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// update rewrites the golden files instead of asserting against them:
//
//	go test ./internal/experiment -run TestGolden -update
//
// The committed baseline store is refreshed separately, with
// `go run ./cmd/resultstore baseline -dir internal/results/testdata/baseline`.
var update = flag.Bool("update", false, "rewrite the golden files under internal/results/testdata")

// goldenPath returns internal/results/testdata/<experiment>.golden.json.
func goldenPath(exp string) string {
	return filepath.Join("..", "results", "testdata", exp+".golden.json")
}

// goldenBytes renders a record the way the golden files store it: the
// canonical (signature-covered) view, pretty-printed for reviewable
// diffs, trailing newline included.
func goldenBytes(t *testing.T, rec *results.Record) []byte {
	t.Helper()
	canonical, err := rec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	pretty.WriteByte('\n')
	return pretty.Bytes()
}

// testGolden runs one experiment in-process at the committed baseline
// parameters and asserts its canonical encoding is byte-identical to the
// golden file (or rewrites the golden under -update).
func testGolden(t *testing.T, exp string) {
	params, err := results.BaselineParams(exp)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := experiment.Lookup(exp)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := experiment.Run(context.Background(), spec, params, experiment.InProcess{}, nil)
	if err != nil {
		t.Fatalf("Run(%s): %v", exp, err)
	}
	got := goldenBytes(t, rec)
	path := goldenPath(exp)

	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %.12s)", path, len(got), rec.Hash)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output diverged from its golden file.\n"+
			"If the change is intentional, regenerate with:\n"+
			"  go test ./internal/experiment -run TestGolden -update\ngot:\n%swant:\n%s",
			exp, got, want)
	}
}

func TestGoldenFigure7(t *testing.T)  { testGolden(t, results.ExpFigure7) }
func TestGoldenTable1(t *testing.T)   { testGolden(t, results.ExpTable1) }
func TestGoldenFigure11(t *testing.T) { testGolden(t, results.ExpFigure11) }
func TestGoldenFigure12(t *testing.T) { testGolden(t, results.ExpFigure12) }

func TestGoldenConcordance(t *testing.T) { testGolden(t, results.ExpConcordance) }
