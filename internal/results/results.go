// Package results is the persistent results store: every experiment
// harness (the Figure 7 histogram, the Table 1 vulnerability matrix, the
// Figure 11 channel curves, the Figure 12 defense-overhead sweep and the
// detector-versus-simulator concordance grid) can persist its output as
// a Record — the experiment's parameters, volatile run metadata (git
// revision, worker count, wall time) and the full payload — into an
// append-only JSONL store for cross-run comparison and regression
// tracking. The Figure 11 and Figure 12 payloads are the domain results
// themselves (channel.Result points, a workload.EvalResult), so those
// types' JSON field order is part of the signature.
//
// Two runs are comparable when their experiment and parameters match;
// volatile metadata (worker count included — results are bit-identical at
// any worker count by construction) never affects comparison. Each record
// carries a canonical SHA-256 signature of its parameters and payload.
// Every experiment is deterministic, so Diff has no tolerance: comparable
// records are identical when their canonical bytes match and changed
// otherwise, and a changed report names each moved value by its path.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"specinterference/internal/channel"
	"specinterference/internal/core"
	"specinterference/internal/detect"
	"specinterference/internal/workload"
)

// SchemaVersion is bumped whenever Record's canonical encoding changes
// incompatibly; records with a different schema are incomparable.
const SchemaVersion = 1

// Experiment names. One Record holds exactly one experiment's payload.
const (
	// ExpFigure7 is the §4.2.1 interference-contention histogram.
	ExpFigure7 = "figure7"
	// ExpTable1 is the scheme × gadget × ordering vulnerability matrix.
	ExpTable1 = "table1"
	// ExpFigure11 is the covert-channel error-versus-rate curves.
	ExpFigure11 = "figure11"
	// ExpFigure12 is the defense-overhead sweep.
	ExpFigure12 = "figure12"
	// ExpConcordance is the static-detector-versus-simulator agreement
	// grid over the Table 1 cells.
	ExpConcordance = "concordance"
)

// Experiments lists every experiment name in canonical order.
func Experiments() []string {
	return []string{ExpFigure7, ExpTable1, ExpFigure11, ExpFigure12, ExpConcordance}
}

// Params are the experiment parameters that define comparability: two
// records are comparable only when their Params signatures are equal.
// Fields are per-experiment; unused ones stay zero and are omitted from
// the JSON.
type Params struct {
	// Trials is the per-arm trial count (figure7).
	Trials int `json:"trials,omitempty"`
	// Jitter is the DRAM latency jitter in cycles (figure7).
	Jitter int `json:"jitter,omitempty"`
	// Seed is the measurement seed (figure7, figure11).
	Seed uint64 `json:"seed,omitempty"`
	// Schemes lists scheme names (table1, figure12).
	Schemes []string `json:"schemes,omitempty"`
	// PoCs lists PoC names, "dcache"/"icache" (figure11).
	PoCs []string `json:"pocs,omitempty"`
	// Bits is the number of random bits per curve point (figure11).
	Bits int `json:"bits,omitempty"`
	// Reps is the repetitions-per-bit sweep (figure11).
	Reps []int `json:"reps,omitempty"`
	// Iters is the per-kernel loop count (figure12).
	Iters int `json:"iters,omitempty"`
}

// Signature is the SHA-256 of the params' JSON encoding, in which every
// field counts, one added later included. Two records are comparable, and
// a remote journal replayable, only when their signatures match.
func (p Params) Signature() string {
	b, err := json.Marshal(p)
	if err != nil {
		panic("results: params marshal: " + err.Error()) // Params marshals by construction
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Meta is volatile run metadata: recorded for provenance, excluded from
// the canonical signature, never part of comparability.
type Meta struct {
	// CreatedAt is the record's creation time, RFC 3339.
	CreatedAt string `json:"created_at,omitempty"`
	// GitRev is the source revision the run was built from.
	GitRev string `json:"git_rev,omitempty"`
	// Workers is the worker-goroutine count the run used (0 = one per
	// CPU). Results are bit-identical at any value, hence metadata.
	Workers int `json:"workers,omitempty"`
	// Backend names the execution backend the run used ("inprocess",
	// "subprocess", "remote"); like Workers it never affects results,
	// hence metadata, but provenance should say how a run was produced.
	Backend string `json:"backend,omitempty"`
	// Procs is the -procs value of a subprocess or remote run: the
	// subprocess worker-process count (0 = one per CPU), or the number
	// of local remote workers spawned next to the coordinator (0 = none,
	// external workers only). Zero for in-process runs.
	Procs int `json:"procs,omitempty"`
	// WallMillis is the run's wall-clock duration in milliseconds.
	WallMillis int64 `json:"wall_ms,omitempty"`
	// Note is a free-form annotation ("baseline", ticket numbers, ...).
	Note string `json:"note,omitempty"`
}

// Figure7Payload is the full per-arm data behind the Figure 7 histogram.
type Figure7Payload struct {
	// Baseline and Interference are the per-trial target latencies; the
	// histograms are derived views, so the raw arms are what persist.
	Baseline     []float64 `json:"baseline"`
	Interference []float64 `json:"interference"`
	// Separation is the difference of the arm means (cycles).
	Separation float64 `json:"separation"`
	// Overlap is the overlap coefficient of the two arm histograms.
	Overlap float64 `json:"overlap"`
}

// Table1Cell is one vulnerability-matrix entry.
type Table1Cell struct {
	Scheme     string `json:"scheme"`
	Gadget     string `json:"gadget"`
	Ordering   string `json:"ordering"`
	Vulnerable bool   `json:"vulnerable"`
	RefCycle   int64  `json:"ref_cycle,omitempty"`
}

// Table1Payload is the full vulnerability matrix.
type Table1Payload struct {
	Cells []Table1Cell `json:"cells"`
}

// Format renders the matrix as a Table 1-style text table: one line per
// gadget|ordering combination, in the order the cells first name it,
// listing the schemes whose cell is vulnerable ("-" when none is).
func (p *Table1Payload) Format() string {
	var order []string
	vulnerable := map[string][]string{}
	for _, c := range p.Cells {
		k := c.Gadget + "|" + c.Ordering
		names, seen := vulnerable[k]
		if !seen {
			order = append(order, k)
		}
		if c.Vulnerable {
			names = append(names, c.Scheme)
		}
		vulnerable[k] = names
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %s\n", "Gadget|Ordering", "Vulnerable schemes")
	for _, k := range order {
		names := vulnerable[k]
		if len(names) == 0 {
			names = []string{"-"}
		}
		fmt.Fprintf(&b, "%-22s %s\n", k, strings.Join(names, ", "))
	}
	return b.String()
}

// Figure11Curve is one PoC's Figure 11 curve.
type Figure11Curve struct {
	// PoC is "dcache" or "icache".
	PoC string `json:"poc"`
	// Scheme is the victim scheme the PoC attacked.
	Scheme string `json:"scheme"`
	// Points is the measured error-versus-rate sweep.
	Points []channel.Result `json:"points"`
}

// Figure11Payload holds every measured curve.
type Figure11Payload struct {
	Curves []Figure11Curve `json:"curves"`
}

// ConcordanceCell is one static-versus-empirical comparison entry.
type ConcordanceCell struct {
	Scheme   string `json:"scheme"`
	Gadget   string `json:"gadget"`
	Ordering string `json:"ordering"`
	// Empirical is the simulator's Table 1 classification.
	Empirical bool `json:"empirical"`
	// Detector is the static analysis verdict.
	Detector bool `json:"detector"`
	// Mechanism names the detector's decisive rule.
	Mechanism string `json:"mechanism"`
	// Match is Empirical == Detector.
	Match bool `json:"match"`
}

// ConcordancePayload is the full detector agreement grid.
type ConcordancePayload struct {
	Cells []ConcordanceCell `json:"cells"`
}

// Record is one persisted experiment run. Exactly one payload pointer is
// non-nil, matching Experiment.
type Record struct {
	Schema     int    `json:"schema"`
	Experiment string `json:"experiment"`
	Params     Params `json:"params"`
	Meta       Meta   `json:"meta"`
	// Hash is the canonical SHA-256 signature of (schema, experiment,
	// params, payload); see ComputeHash.
	Hash string `json:"hash"`

	Figure7     *Figure7Payload      `json:"figure7,omitempty"`
	Table1      *Table1Payload       `json:"table1,omitempty"`
	Figure11    *Figure11Payload     `json:"figure11,omitempty"`
	Figure12    *workload.EvalResult `json:"figure12,omitempty"`
	Concordance *ConcordancePayload  `json:"concordance,omitempty"`
}

// canonicalView is what the signature covers: everything that defines the
// run's outcome, nothing volatile (Meta, and the Hash itself).
type canonicalView struct {
	Schema      int                  `json:"schema"`
	Experiment  string               `json:"experiment"`
	Params      Params               `json:"params"`
	Figure7     *Figure7Payload      `json:"figure7,omitempty"`
	Table1      *Table1Payload       `json:"table1,omitempty"`
	Figure11    *Figure11Payload     `json:"figure11,omitempty"`
	Figure12    *workload.EvalResult `json:"figure12,omitempty"`
	Concordance *ConcordancePayload  `json:"concordance,omitempty"`
}

// CanonicalJSON renders the signature-covered view of the record. The
// encoding is deterministic: encoding/json emits struct fields in
// declaration order, map keys sorted, and floats in shortest round-trip
// form.
func (r *Record) CanonicalJSON() ([]byte, error) {
	return json.Marshal(canonicalView{
		Schema: r.Schema, Experiment: r.Experiment, Params: r.Params,
		Figure7: r.Figure7, Table1: r.Table1,
		Figure11: r.Figure11, Figure12: r.Figure12,
		Concordance: r.Concordance,
	})
}

// ComputeHash returns the canonical SHA-256 signature of the record.
func (r *Record) ComputeHash() (string, error) {
	b, err := r.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// seal stamps Schema and Hash; every constructor ends with it.
func (r *Record) seal() (*Record, error) {
	r.Schema = SchemaVersion
	h, err := r.ComputeHash()
	if err != nil {
		return nil, err
	}
	r.Hash = h
	return r, nil
}

// Validate checks structural consistency: a known experiment, exactly the
// matching payload present, and (when set) a hash matching the canonical
// signature.
func (r *Record) Validate() error {
	var want int
	for _, p := range []struct {
		name    string
		present bool
	}{
		{ExpFigure7, r.Figure7 != nil},
		{ExpTable1, r.Table1 != nil},
		{ExpFigure11, r.Figure11 != nil},
		{ExpFigure12, r.Figure12 != nil},
		{ExpConcordance, r.Concordance != nil},
	} {
		if p.present {
			want++
			if p.name != r.Experiment {
				return fmt.Errorf("results: record %q carries a %s payload", r.Experiment, p.name)
			}
		}
	}
	if want != 1 {
		return fmt.Errorf("results: record %q must carry exactly one payload, has %d", r.Experiment, want)
	}
	if r.Hash != "" {
		h, err := r.ComputeHash()
		if err != nil {
			return err
		}
		if h != r.Hash {
			return fmt.Errorf("results: record %q hash mismatch: stored %.12s, canonical %.12s", r.Experiment, r.Hash, h)
		}
	}
	return nil
}

// Stamp fills the volatile metadata of a freshly built record: creation
// time, git revision, worker count and wall time. The hash is unaffected.
func (r *Record) Stamp(workers int, wall time.Duration) {
	r.Meta.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	r.Meta.GitRev = GitRevision()
	r.Meta.Workers = workers
	r.Meta.WallMillis = wall.Milliseconds()
}

// NewFigure7Record wraps a Figure 7 measurement.
func NewFigure7Record(res *core.Figure7Result, trials, jitter int, seed uint64) (*Record, error) {
	r := &Record{
		Experiment: ExpFigure7,
		Params:     Params{Trials: trials, Jitter: jitter, Seed: seed},
		Figure7: &Figure7Payload{
			Baseline:     res.Baseline,
			Interference: res.Interference,
			Separation:   res.Separation,
			Overlap:      res.Overlap,
		},
	}
	return r.seal()
}

// NewTable1Record wraps a vulnerability-matrix run.
func NewTable1Record(cells []core.MatrixCell, schemeNames []string) (*Record, error) {
	p := &Table1Payload{Cells: make([]Table1Cell, 0, len(cells))}
	for _, c := range cells {
		p.Cells = append(p.Cells, Table1Cell{
			Scheme: c.Scheme, Gadget: c.Gadget.String(), Ordering: c.Ordering.String(),
			Vulnerable: c.Vulnerable, RefCycle: c.RefCycle,
		})
	}
	r := &Record{
		Experiment: ExpTable1,
		Params:     Params{Schemes: append([]string(nil), schemeNames...)},
		Table1:     p,
	}
	return r.seal()
}

// NewConcordanceRecord wraps a detector-versus-simulator agreement grid.
// It refuses to seal a record containing a mismatch: a divergence must be
// fixed in the detector before it can become a committed result.
func NewConcordanceRecord(cells []detect.Cell, schemeNames []string) (*Record, error) {
	if err := detect.CheckCells(cells); err != nil {
		return nil, err
	}
	p := &ConcordancePayload{Cells: make([]ConcordanceCell, 0, len(cells))}
	for _, c := range cells {
		p.Cells = append(p.Cells, ConcordanceCell{
			Scheme: c.Scheme, Gadget: c.Gadget.String(), Ordering: c.Ordering.String(),
			Empirical: c.Empirical, Detector: c.Detector,
			Mechanism: c.Mechanism, Match: c.Match,
		})
	}
	r := &Record{
		Experiment:  ExpConcordance,
		Params:      Params{Schemes: append([]string(nil), schemeNames...)},
		Concordance: p,
	}
	return r.seal()
}

// NewFigure11Record wraps a set of channel curves measured with the given
// bits/reps/seed parameters.
func NewFigure11Record(curves []Figure11Curve, bits int, reps []int, seed uint64) (*Record, error) {
	pocs := make([]string, 0, len(curves))
	for _, c := range curves {
		pocs = append(pocs, c.PoC)
	}
	r := &Record{
		Experiment: ExpFigure11,
		Params: Params{
			PoCs: pocs, Bits: bits,
			Reps: append([]int(nil), reps...), Seed: seed,
		},
		Figure11: &Figure11Payload{Curves: curves},
	}
	return r.seal()
}

// NewFigure12Record wraps a defense-overhead sweep.
func NewFigure12Record(res *workload.EvalResult, iters int, schemeNames []string) (*Record, error) {
	r := &Record{
		Experiment: ExpFigure12,
		Params:     Params{Iters: iters, Schemes: append([]string(nil), schemeNames...)},
		Figure12:   res,
	}
	return r.seal()
}
