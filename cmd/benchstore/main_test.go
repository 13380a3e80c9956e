package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m) }

// suite is a saved `go test -bench -benchmem` output of two benchmarks:
// SummarizeBaseline, whose allocs/op and B/op are exact-gated, and
// Table1Matrix, whose are banded.
const suite = `goos: linux
goarch: amd64
pkg: specinterference
BenchmarkSummarizeBaseline-2   	       3	     44719 ns/op	    8192 B/op	       1 allocs/op
BenchmarkTable1Matrix-2        	       1	 351425908 ns/op	        98.00 cells-matching-paper	221584432 B/op	 3419948 allocs/op
PASS
ok  	specinterference	4.478s
`

// TestBlessThenCheck: check passes on the output bless recorded, and
// fails naming the benchmark once an exact-gated allocs/op moves.
func TestBlessThenCheck(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out := write("bench.txt", suite)
	store := filepath.Join(dir, "store")

	cmdtest.Run(t, "", "bless", "-from", out, "-dir", store, "-note", "x")
	if got := cmdtest.Run(t, "", "check", "-from", out, "-dir", store); !strings.Contains(got, "benchstore: ok (") {
		t.Errorf("check on the blessed output:\n%s", got)
	}

	moved := write("moved.txt", strings.Replace(suite, "8192 B/op	       1 allocs/op", "8192 B/op	       2 allocs/op", 1))
	got := cmdtest.RunFail(t, "", "check", "-from", moved, "-dir", store)
	if !strings.Contains(got, "REGRESSION  SummarizeBaseline allocs/op: 1 -> 2") {
		t.Errorf("check on a moved exact-gated allocs/op does not name it:\n%s", got)
	}
}
