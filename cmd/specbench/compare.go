package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// Verdicts of a (workload, metric) comparison.
const (
	verdictWithin     = "within"     // no worse than the bound allows
	verdictRegressed  = "regressed"  // worse by more than the bound
	verdictUnresolved = "unresolved" // the parent's spread is wider than the bound
	verdictBetter     = "better"     // spread too wide, but every change value beats every parent value
	verdictGain       = "gain"       // a gain by the claim rule: >= 10 pairs, >= 9/10 wins, gap > parent IQR
)

// minGainPairs and gainWinShare are the claim rule for a gain.
const (
	minGainPairs = 10
	gainWinShare = 0.9
)

// comparison is one (workload, metric) row of compare.
type comparison struct {
	workload, metric string
	parent, change   float64 // medians of the per-file medians
	spread           float64 // the parent's relative spread
	bound            float64
	verdict          string
}

// compareDocs applies the benchmark's rules to pairs of result files,
// given in run order as parent, change, parent, change, ...
func compareDocs(parents, changes []*resultDoc) []comparison {
	var rows []comparison
	for _, wl := range sortedKeys(parents[0].Results) {
		if _, ok := changes[0].Results[wl]; !ok {
			continue
		}
		for _, m := range endToEnd {
			pm, pvals, pspread := side(parents, wl, m.name)
			cm, cvals, _ := side(changes, wl, m.name)
			row := comparison{workload: wl, metric: m.name, parent: pm, change: cm, spread: pspread, bound: m.bound}
			switch {
			case gain(parents, changes, wl, m.name):
				row.verdict = verdictGain
			case pspread > m.bound && len(cvals) > 0 && len(pvals) > 0 && slices.Max(cvals) < slices.Min(pvals):
				row.verdict = verdictBetter
			case pspread > m.bound:
				row.verdict = verdictUnresolved
			case cm > pm*(1+m.bound):
				row.verdict = verdictRegressed
			default:
				row.verdict = verdictWithin
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// side returns one side's median of per-file medians, the values its
// spread is taken over, and that spread relative to the median. With
// several files the values are the per-file medians, and the spread is
// their interquartile range: the run-to-run spread. With one file the
// values are its samples, and the spread is the interquartile range the
// file's median would have over repeated runs on an unchanging host,
// 1.25 × IQR / √n by the normal approximation; it leaves out the host's
// drift between runs, which only several files per side measure.
func side(docs []*resultDoc, wl, metric string) (med float64, vals []float64, spread float64) {
	var samples []float64
	for _, d := range docs {
		if s := d.summary(wl, metric); s != nil && s.N > 0 {
			vals = append(vals, s.Median)
			samples = s.Samples
		}
	}
	med = median(vals)
	if len(vals) == 0 || med == 0 {
		return med, vals, math.Inf(1)
	}
	if len(docs) == 1 {
		q1, _, q3 := quartiles(samples)
		return med, samples, 1.25 * (q3 - q1) / math.Sqrt(float64(len(samples))) / med
	}
	q1, _, q3 := quartiles(vals)
	return med, vals, (q3 - q1) / med
}

// gain is the claim rule for a lower-is-better metric: at least
// minGainPairs pairs, the change's median below the parent's in at
// least gainWinShare of them (ties count for neither), and the gap
// between the medians of the two sides wider than the parent's
// interquartile range.
func gain(parents, changes []*resultDoc, wl, metric string) bool {
	if len(parents) < minGainPairs {
		return false
	}
	wins := 0
	var pv, cv []float64
	for i := range parents {
		p, c := parents[i].summary(wl, metric), changes[i].summary(wl, metric)
		if p == nil || c == nil {
			return false
		}
		if c.Median < p.Median {
			wins++
		}
		pv, cv = append(pv, p.Median), append(cv, c.Median)
	}
	q1, pm, q3 := quartiles(pv)
	return float64(wins) >= gainWinShare*float64(len(parents)) && pm-median(cv) > q3-q1
}

// summary returns a workload's end-to-end metric, or nil.
func (d *resultDoc) summary(wl, metric string) *summary {
	if r := d.Results[wl]; r != nil {
		return r.Metrics[metric]
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareMain is `specbench compare PARENT CHANGE [PARENT CHANGE ...]`.
// It exits 1 when any file records a failed regeneration or any metric
// regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || len(args)%2 != 0 {
		fmt.Fprintln(stderr, "usage: specbench compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]")
		return 2
	}
	var docs, parents, changes []*resultDoc
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "specbench:", err)
			return 2
		}
		doc := &resultDoc{}
		if err := json.Unmarshal(b, doc); err != nil {
			fmt.Fprintf(stderr, "specbench: %s: %v\n", path, err)
			return 2
		}
		docs = append(docs, doc)
		if i%2 == 0 {
			parents = append(parents, doc)
		} else {
			changes = append(changes, doc)
		}
	}
	code := 0
	for i, doc := range docs {
		for _, wl := range sortedKeys(doc.Results) {
			if r := doc.Results[wl]; r.Failed > 0 {
				fmt.Fprintf(stdout, "%s: %s: %d of %d regenerations failed\n", args[i], wl, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	fmt.Fprintf(stdout, "%d pair(s)\n%-22s %-12s %12s %12s %8s %8s %6s  %s\n", len(parents),
		"workload", "metric", "parent", "change", "delta", "spread", "bound", "verdict")
	for _, r := range compareDocs(parents, changes) {
		fmt.Fprintf(stdout, "%-22s %-12s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n", r.workload, r.metric,
			r.parent, r.change, 100*(r.change/r.parent-1), 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict == verdictRegressed {
			code = 1
		}
	}
	return code
}
