package detect

import (
	"context"
	"runtime"
	"testing"

	"specinterference/internal/core"
	"specinterference/internal/runner"
	"specinterference/internal/schemes"
)

// TestCellVerdictAllCells is the detector⇔schemes contract: every
// registered policy must yield a verdict (no error) for every gadget and
// ordering the matrix runs, and that verdict must equal the committed
// Table 1 expectation for the cell. This checks the static analysis
// against the paper's ground truth without running the simulator.
//
// Each verdict must also stay below 1,000 allocations. A verdict needs
// about a hundred; building a cache hierarchy alone costs over 11,000, so
// the bound fails if the detector starts building simulator state per cell.
func TestCellVerdictAllCells(t *testing.T) {
	expected := core.ExpectedTable1()
	for _, combo := range core.Combos() {
		g := combo[0].(core.Gadget)
		ord := combo[1].(core.Ordering)
		row := expected[g.String()+"|"+ord.String()]
		for _, name := range schemes.Names() {
			v, err := CellVerdict(name, g, ord)
			if err != nil {
				t.Errorf("%s/%s/%s: %v", name, g, ord, err)
				continue
			}
			if want := row[name]; v.Leak != want {
				t.Errorf("%s/%s/%s: detector says %v, Table 1 says leak=%v", name, g, ord, v, want)
			}
			if v.Mechanism == "" {
				t.Errorf("%s/%s/%s: verdict without mechanism", name, g, ord)
			}
			if raceDetectorEnabled {
				continue
			}
			allocs := testing.AllocsPerRun(1, func() { CellVerdict(name, g, ord) })
			if allocs >= 1000 {
				t.Errorf("%s/%s/%s: %v allocs per verdict, want < 1000", name, g, ord, allocs)
			}
		}
	}
}

// TestConcordanceMatrix runs the full empirical-vs-static grid for the
// paper's schemes, shard by shard as the concordance spec does, and
// requires every cell to match.
func TestConcordanceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator grid in -short mode")
	}
	names := schemes.Names()
	cells, err := runner.Map(context.Background(), core.MatrixShards(names), runtime.GOMAXPROCS(0), func(_ context.Context, j int) (Cell, error) {
		return Shard(names, j)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCells(cells); err != nil {
		t.Fatal(err)
	}
	if got, want := len(cells), core.MatrixShards(names); got != want {
		t.Fatalf("got %d cells, want %d", got, want)
	}
}
