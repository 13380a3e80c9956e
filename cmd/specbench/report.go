package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// resultDoc is the result file specbench writes with -out and compare
// reads.
type resultDoc struct {
	Seed    uint64                     `json:"seed"`
	Trace   bool                       `json:"trace"`
	Rounds  int                        `json:"rounds"`
	CalRefS float64                    `json:"cal_ref_s"`
	CalibS  []float64                  `json:"calib_s"`
	Results map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Metrics are the end-to-end metrics, from untraced regenerations.
	Metrics map[string]*summary `json:"metrics"`
	// Layers are the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// buildResult summarizes the samples of a run.
func (d *driver) buildResult(seed uint64, samples map[string][]*sample) *resultDoc {
	doc := &resultDoc{Seed: seed, Trace: d.trace, Rounds: len(d.calib), CalRefS: calRefS, CalibS: d.calib, Results: map[string]*workloadResult{}}
	for _, w := range d.selected {
		wr := &workloadResult{Metrics: map[string]*summary{}}
		var plain []*sample
		for _, s := range samples[w.name] {
			wr.Attempted++
			if s.err != nil {
				wr.Failed++
			} else if !s.traced {
				plain = append(plain, s)
			}
		}
		for _, m := range endToEnd {
			var xs []float64
			for _, s := range plain {
				v := m.value(s)
				if isTime(m.unit) {
					v *= d.scale(s.round)
				}
				xs = append(xs, v)
			}
			wr.Metrics[m.name] = summarize(m.unit, xs)
		}
		if d.trace {
			wr.Layers = d.layers(w, samples[w.name])
		}
		doc.Results[w.name] = wr
	}
	return doc
}

// layers computes the per-layer metrics of workload w from its traced
// and untraced samples and the probe child.
func (d *driver) layers(w *workloadSpec, samples []*sample) map[string]float64 {
	p := d.probe.report.Probe
	sc := d.scale(d.probe.round)
	ms := func(ns float64) float64 { return ns / 1e6 * sc }
	us := func(ns float64) float64 { return ns / 1e3 * sc }
	var cycles int64
	for _, c := range p.EvalCycles {
		cycles += c
	}
	evalNS := sum(p.EvalNS)
	out := map[string]float64{
		"core.matrix_cell_ms":     ms(median(p.MatrixCellNS)),
		"core.attack_setup_share": p.AttackSetupNS / p.RunTrialNS,
		"core.figure7_shard_us":   us(median(p.Figure7NS)),
		"detect.cell_verdict_ms":  ms(median(p.VerdictNS)),
		"detect.share":            sum(p.VerdictNS) / (sum(p.VerdictNS) + sum(p.MatrixCellNS)),
		"runner.busy_frac":        p.BusyShardNS / (maxWorkers * p.BusyRunNS),
		"uarch.ns_per_sim_cycle":  evalNS / float64(cycles) * sc,
		"uarch.sim_cycles":        float64(cycles),
		"workload.max_cell_share": slices.Max(p.EvalNS) / evalNS,
	}

	// The shard wire format and coordinator costs are the workload's own:
	// pooled over the experiments its steps run.
	var pool codecSamples
	for _, s := range w.steps {
		c := p.Codec[s.Exp]
		pool.EncodeNS = append(pool.EncodeNS, c.EncodeNS...)
		pool.DecodeNS = append(pool.DecodeNS, c.DecodeNS...)
		pool.Bytes = append(pool.Bytes, c.Bytes...)
		pool.LeaseNS = append(pool.LeaseNS, c.LeaseNS...)
		pool.ResultNS = append(pool.ResultNS, c.ResultNS...)
		pool.JournalResultNS = append(pool.JournalResultNS, c.JournalResultNS...)
		pool.PostNS = append(pool.PostNS, c.PostNS...)
	}
	out["experiment.encode_us"] = us(median(pool.EncodeNS))
	out["experiment.decode_us"] = us(median(pool.DecodeNS))
	out["experiment.shard_bytes"] = median(pool.Bytes)
	out["remote.lease_us"] = us(median(pool.LeaseNS))
	out["remote.result_us"] = us(median(pool.ResultNS))
	out["remote.journal_us"] = us(median(pool.JournalResultNS) - median(pool.ResultNS))
	out["remote.post_us"] = us(median(pool.PostNS))

	var agg, first, init, issued, tracedWall, plainWall []float64
	var won, shards int
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		sc := d.scale(s.round)
		init = append(init, s.init*1e3*sc)
		if !s.traced {
			plainWall = append(plainWall, s.wall*sc)
			continue
		}
		tracedWall = append(tracedWall, s.wall*sc)
		var a float64
		for _, sp := range s.report.Spans {
			if strings.HasSuffix(sp.Name, ".Aggregate") {
				a += float64(sp.End - sp.Start)
			}
		}
		agg = append(agg, a/1e6*sc)
		first = append(first, float64(s.report.FirstDoneNS-s.report.RunNS)/1e6*sc)
		issued = append(issued, float64(s.report.BackupsIssued))
		won += s.report.BackupsWon
		shards += s.report.RemoteShards
	}
	out["experiment.aggregate_ms"] = median(agg)
	out["experiment.first_shard_ms"] = median(first)
	out["main.init_ms"] = median(init)
	out["remote.backups_issued"] = median(issued)
	out["remote.backups_won_frac"] = 0
	if shards > 0 {
		out["remote.backups_won_frac"] = float64(won) / float64(shards)
	}
	out["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// printTable writes the human-readable summary of a run.
func printTable(w io.Writer, doc *resultDoc, order []*workloadSpec) {
	fmt.Fprintf(w, "specbench: seed %d, %d rounds, median calib_s %.4f (cal_ref_s %.3f)\n",
		doc.Seed, doc.Rounds, median(doc.CalibS), doc.CalRefS)
	fmt.Fprintf(w, "%-22s %-12s %12s %12s %12s %5s  %s\n", "workload", "metric", "median", "q1", "q3", "n", "tail")
	for _, wl := range order {
		r := doc.Results[wl.name]
		for _, m := range endToEnd {
			s := r.Metrics[m.name]
			tail := "-"
			if s.TailPct > 0 {
				tail = fmt.Sprintf("p%g %.4f", s.TailPct, s.Tail)
			}
			fmt.Fprintf(w, "%-22s %-12s %12.4f %12.4f %12.4f %5d  %s  [%s]\n", wl.name, m.name, s.Median, s.Q1, s.Q3, s.N, tail, s.Unit)
		}
		fmt.Fprintf(w, "%-22s %-12s %d of %d regenerations failed\n", wl.name, "correctness", r.Failed, r.Attempted)
	}
	for _, wl := range order {
		r := doc.Results[wl.name]
		if r.Layers == nil {
			continue
		}
		for _, lm := range perLayer {
			fmt.Fprintf(w, "%-22s %-28s %14.6g %-6s should move %s on %s\n", wl.name, lm.name, r.Layers[lm.name], lm.unit, lm.moves, lm.on)
		}
	}
}

// resultLine is the one-line JSON result for a single-workload run:
// the end-to-end metrics, or with tracing the per-layer metrics.
func resultLine(doc *resultDoc, name string) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	r := doc.Results[name]
	metrics := map[string]value{}
	if doc.Trace {
		for _, lm := range perLayer {
			metrics[lm.name] = value{r.Layers[lm.name], lm.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{r.Metrics[m.name].Median, m.unit}
		}
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
}

// writeJSON writes v to path, indented.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// traceEvent is one Chrome trace-event ("X", a complete event). pid is
// the child process's sample id, tid a lane in which spans nest.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeTrace writes the traced children's spans as a Chrome trace-event
// file and returns each layer's self time in seconds: its spans'
// durations minus the parts their child spans cover.
func (d *driver) writeTrace(path string, samples map[string][]*sample) (map[string]float64, error) {
	procs := []*sample{d.probe}
	for _, w := range d.selected {
		for _, s := range samples[w.name] {
			if s.traced {
				procs = append(procs, s)
			}
		}
	}
	self := map[string]float64{}
	var events []traceEvent
	for _, s := range procs {
		root := "regenerate"
		if s == d.probe {
			root = "probe"
		}
		spans := append([]span{{ID: 0, Parent: -1, Name: root, Layer: "main", Start: s.start, End: s.end}}, s.report.Spans...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End > spans[j].End
		})
		lanes := laneOf(spans)
		for i, sp := range spans {
			var kids [][2]int64
			for _, c := range spans {
				if c.Parent == sp.ID && c.ID != sp.ID {
					kids = append(kids, [2]int64{max(c.Start, sp.Start), min(c.End, sp.End)})
				}
			}
			self[sp.Layer] += float64(sp.End-sp.Start-covered(kids)) / 1e9
			events = append(events, traceEvent{
				Name: sp.Name, Cat: sp.Layer, Ph: "X",
				Ts: float64(sp.Start-d.start.UnixNano()) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
				Pid: s.id, Tid: lanes[i], Args: map[string]int{"id": sp.ID, "parent": sp.Parent},
			})
		}
	}
	return self, writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// laneOf assigns each span (sorted by start, longest first) the first
// lane in which it nests inside every open span, so concurrent siblings
// land on separate lanes.
func laneOf(spans []span) []int {
	var open [][]int64 // per lane: end times of the open spans
	lanes := make([]int, len(spans))
	for i, sp := range spans {
		for l := 0; ; l++ {
			if l == len(open) {
				open = append(open, nil)
			}
			st := open[l]
			for len(st) > 0 && st[len(st)-1] <= sp.Start {
				st = st[:len(st)-1]
			}
			open[l] = st
			if len(st) == 0 || st[len(st)-1] >= sp.End {
				open[l] = append(st, sp.End)
				lanes[i] = l
				break
			}
		}
	}
	return lanes
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += max(0, v[1]-v[0])
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// printSelf writes the per-layer self times, sorted by layer.
func printSelf(w io.Writer, self map[string]float64) {
	layers := make([]string, 0, len(self))
	var total float64
	for l, s := range self {
		layers = append(layers, l)
		total += s
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "%-12s %12s %7s\n", "layer", "self_s", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-12s %12.4f %6.1f%%\n", l, self[l], 100*self[l]/total)
	}
}
