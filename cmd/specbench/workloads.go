package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"specinterference/internal/experiment"
	"specinterference/internal/experiment/remote"
	"specinterference/internal/results"
	"specinterference/internal/schemes"
)

// maxWorkers is every child's concurrency budget: worker goroutines
// in-process, or worker processes for the subprocess and remote backends.
const maxWorkers = 2

// step is one experiment regeneration inside a workload's child process.
type step struct {
	Exp     string         `json:"exp"`
	Params  results.Params `json:"params"`
	Backend string         `json:"backend"`
	// Journal gives the remote coordinator a fresh -journal directory for
	// every regeneration.
	Journal bool `json:"journal,omitempty"`
}

// key names the step's expected output: the experiment and its params.
func (s step) key() string {
	b, err := json.Marshal(s.Params)
	if err != nil {
		panic(err) // Params is plain data
	}
	return s.Exp + " " + string(b)
}

// backend builds the step's execution backend. Backend diagnostics go to
// stderr; journalDir is a fresh directory owned by this regeneration.
func (s step) backend(journalDir string, stderr io.Writer) (experiment.Backend, error) {
	switch s.Backend {
	case "inprocess":
		return experiment.InProcess{Workers: maxWorkers}, nil
	case "subprocess":
		return experiment.Subprocess{Procs: maxWorkers, Stderr: stderr}, nil
	case "remote":
		r := remote.Remote{Procs: maxWorkers, Stderr: stderr}
		if s.Journal {
			r.Journal = journalDir
		}
		return r, nil
	}
	return nil, fmt.Errorf("unknown backend %q", s.Backend)
}

// workloadSpec is one named benchmark input: the steps one regeneration runs
// in a fresh child process, and how many regenerations a round holds.
type workloadSpec struct {
	name, why string
	perRound  int
	steps     []step
}

// workloads is the benchmark's workload table. seed is the Figure 7
// seed; matrix and defense-remote are seedless by the paper's design.
func workloads(seed uint64) []*workloadSpec {
	all := schemes.Names()
	hist := results.Params{Trials: 1500, Jitter: 30, Seed: seed}
	return []*workloadSpec{
		{
			name:     "matrix",
			why:      "Table 1 plus detector concordance, in-process: all time in trials, simulator and detector; transport and journal bypassed",
			perRound: 6,
			steps: []step{
				{Exp: results.ExpTable1, Params: results.Params{Schemes: all}, Backend: "inprocess"},
				{Exp: results.ExpConcordance, Params: results.Params{Schemes: all}, Backend: "inprocess"},
			},
		},
		{
			name:     "histogram-subprocess",
			why:      "Figure 7 as 3000 sub-millisecond shards over stdio workers: per-shard dispatch and encoding show; reference side of subprocess vs remote",
			perRound: 1,
			steps:    []step{{Exp: results.ExpFigure7, Params: hist, Backend: "subprocess"}},
		},
		{
			name:     "histogram-remote",
			why:      "the same Figure 7 work over loopback remote workers with a journal: the gap to histogram-subprocess is transport, leases and journal",
			perRound: 1,
			steps:    []step{{Exp: results.ExpFigure7, Params: hist, Backend: "remote", Journal: true}},
		},
		{
			name:     "defense-remote",
			why:      "Figure 12 as 18 long cycle-level simulations over remote workers: simulator speed, scheduling tail and backup leases dominate",
			perRound: 1,
			steps: []step{{Exp: results.ExpFigure12, Backend: "remote",
				Params: results.Params{Iters: 4000, Schemes: []string{"fence-spectre", "fence-futuristic"}}}},
		},
	}
}

// pinned holds the committed expected hashes of the steps the results
// baselines do not cover: the seed-1 Figure 7 histogram and the seedless
// Figure 12 sweep, at the benchmark's params.
var pinned = map[string]string{
	`figure7 {"trials":1500,"jitter":30,"seed":1}`:                           "85149cb9dc11b6f5fe9c8141d1da50a4c4d7cefb6d20e83440b6bfc51af687f2",
	`figure12 {"schemes":["fence-spectre","fence-futuristic"],"iters":4000}`: "ace6fe32c4609522cb6f8b0f80a183296e01641df297f42e02765be29806d54a",
}

// findRoot returns the repository root: the nearest directory at or
// above the working directory whose go.mod declares module
// specinterference.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module specinterference\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no specinterference module root above the working directory")
		}
		dir = parent
	}
}

// baselineHash returns the committed results-baseline hash for s when
// the baseline was recorded at the same params.
func baselineHash(root string, s step) (string, bool, error) {
	path := filepath.Join(root, "internal", "results", "testdata", "baseline", s.Exp+".jsonl")
	recs, err := results.ReadFile(path)
	if os.IsNotExist(err) {
		return "", false, nil
	}
	if err != nil {
		return "", false, err
	}
	if len(recs) == 0 || !reflect.DeepEqual(recs[len(recs)-1].Params, s.Params) {
		return "", false, nil
	}
	return recs[len(recs)-1].Hash, true, nil
}

// checkRecord is the per-regeneration correctness check: the record is
// intact, carries the expected hash, and shows the paper's shape.
func checkRecord(s step, rec *results.Record, want string) error {
	if rec == nil || rec.Experiment != s.Exp {
		return fmt.Errorf("%s: missing record", s.Exp)
	}
	if err := rec.Validate(); err != nil {
		return err
	}
	if rec.Hash != want {
		return fmt.Errorf("%s: hash %.12s, want %.12s", s.Exp, rec.Hash, want)
	}
	switch s.Exp {
	case results.ExpFigure7:
		if f := rec.Figure7; f.Separation < 50 || f.Overlap > 0.05 {
			return fmt.Errorf("figure7: separation %.1f cycles, overlap %.3f: want >= 50 and <= 0.05", f.Separation, f.Overlap)
		}
	case results.ExpFigure12:
		m := rec.Figure12.Mean
		if spectre, futuristic := m["fence-spectre"], m["fence-futuristic"]; !(futuristic > spectre && spectre >= 1) {
			return fmt.Errorf("figure12: mean slowdown fence-futuristic %.3f, fence-spectre %.3f: want futuristic > spectre >= 1", futuristic, spectre)
		}
	}
	return nil
}
