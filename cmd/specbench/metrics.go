package main

import (
	"math"
	"slices"
)

// metric is one end-to-end metric: what a user of a regeneration sees.
type metric struct {
	name, unit string
	// bound is the share of the parent's median by which the metric may
	// get worse before a change counts as a regression.
	bound float64
	value func(s *sample) float64
}

// endToEnd lists the end-to-end metrics, all lower-is-better, measured
// on untraced regenerations only.
var endToEnd = []metric{
	{"wall_s", "s", 0.25, func(s *sample) float64 { return s.wall }},
	{"cpu_s", "s", 0.25, func(s *sample) float64 { return s.cpu }},
	{"setup_s", "s", 0.25, func(s *sample) float64 { return s.setup }},
	{"peak_rss_mb", "MiB", 0.15, func(s *sample) float64 { return s.rssMB }},
}

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it should move.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

// perLayer lists the per-layer metrics.
var perLayer = []layerMetric{
	{"core.matrix_cell_ms", "ms", "lower", "wall_s, cpu_s", "matrix"},
	{"core.attack_setup_share", "ratio", "lower", "wall_s", "matrix"},
	{"core.figure7_shard_us", "us", "lower", "cpu_s", "histogram-*"},
	{"detect.cell_verdict_ms", "ms", "lower", "wall_s, cpu_s", "matrix"},
	{"detect.share", "ratio", "lower", "cpu_s", "matrix"},
	{"runner.busy_frac", "ratio", "higher", "wall_s", "matrix"},
	{"uarch.ns_per_sim_cycle", "ns", "lower", "wall_s, cpu_s", "defense-remote"},
	{"uarch.sim_cycles", "count", "lower", "none: must stay identical", "defense-remote"},
	{"workload.max_cell_share", "ratio", "lower", "wall_s (tail)", "defense-remote"},
	{"experiment.encode_us", "us", "lower", "cpu_s", "histogram-*"},
	{"experiment.decode_us", "us", "lower", "cpu_s", "histogram-*"},
	{"experiment.shard_bytes", "bytes", "lower", "cpu_s", "histogram-*"},
	{"experiment.aggregate_ms", "ms", "lower", "wall_s", "all"},
	{"experiment.first_shard_ms", "ms", "lower", "setup_s", "all"},
	{"main.init_ms", "ms", "lower", "setup_s", "all"},
	{"remote.lease_us", "us", "lower", "cpu_s", "histogram-remote"},
	{"remote.result_us", "us", "lower", "cpu_s", "histogram-remote"},
	{"remote.journal_us", "us", "lower", "cpu_s", "histogram-remote"},
	{"remote.post_us", "us", "lower", "wall_s, cpu_s", "histogram-remote"},
	{"remote.backups_issued", "count", "lower", "wall_s", "defense-remote"},
	{"remote.backups_won_frac", "ratio", "higher", "wall_s", "defense-remote"},
	{"trace.overhead_frac", "ratio", "lower", "none: reports tracing cost", "matrix"},
}

// isTime reports whether a unit is a time. Times are calibrated:
// reported as raw × calRefS / calib_s.
func isTime(unit string) bool {
	switch unit {
	case "s", "ms", "us", "ns":
		return true
	}
	return false
}

// summary is one metric's distribution over a run's samples.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// TailPct is the highest percentile with at least ten samples beyond
	// it, and Tail its value; both are zero when n < 20.
	TailPct float64   `json:"tail_pct,omitempty"`
	Tail    float64   `json:"tail,omitempty"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) *summary {
	s := &summary{Unit: unit, N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = quartiles(xs)
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	for _, p := range []float64{99, 95, 90, 75, 50} {
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank >= 1 && len(sorted)-rank >= 10 {
			s.TailPct, s.Tail = p, sorted[rank-1]
			break
		}
	}
	return s
}

// quartiles returns the three cut points of xs by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), so quartiles printed here
// match that computation on the same values. One value is its own
// quartiles.
func quartiles(xs []float64) (q1, median, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := quartiles(xs)
	return m
}
