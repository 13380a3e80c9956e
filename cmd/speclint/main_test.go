package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
)

// TestSpeclintCleanTree runs the full suite over the repo the same way
// CI does: the committed tree must lint clean (exit 0, no findings).
func TestSpeclintCleanTree(t *testing.T) {
	stdout, stderr := cmdtest.RunCapture(t, "", "-C", "../..", "./...")
	if strings.TrimSpace(stdout) != "" || strings.TrimSpace(stderr) != "" {
		t.Fatalf("clean tree produced output:\nstdout: %s\nstderr: %s", stdout, stderr)
	}
}

// TestSpeclintSeededViolation lints a scratch module holding one
// violation per analyzer and asserts a non-zero exit naming each.
func TestSpeclintSeededViolation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratchlint\n\ngo 1.22\n")
	write("main.go", `package main

import (
	"fmt"
	"sync"
	"time"
)

type Spec struct {
	Run func(i int) (any, error)
}

var specs []*Spec

func register(s *Spec) { specs = append(specs, s) }

func init() {
	register(&Spec{Run: func(i int) (any, error) {
		return time.Now().UnixNano(), nil
	}})
}

type store struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func unlocked(s *store) int { return s.n }

//speclint:allocfree
func hot(n int) string {
	s := fmt.Sprintf("%d", n)
	return s
}

func main() {}
`)

	out := cmdtest.RunFail(t, "", "-C", dir, ".")
	for _, analyzer := range []string{"nondeterminism", "allocfree", "lockdiscipline"} {
		if !strings.Contains(out, analyzer+":") {
			t.Errorf("seeded violation output missing %s finding:\n%s", analyzer, out)
		}
	}
}
