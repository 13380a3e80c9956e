package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"specinterference/internal/core"
	"specinterference/internal/detect"
	"specinterference/internal/experiment"
	"specinterference/internal/experiment/remote"
	"specinterference/internal/results"
	"specinterference/internal/schemes"
	"specinterference/internal/workload"
)

// probeResult holds the raw (uncalibrated) samples of the layer probes.
// Times are in nanoseconds.
type probeResult struct {
	MatrixCellNS []float64 `json:"matrix_cell_ns"`
	VerdictNS    []float64 `json:"verdict_ns"`
	// AttackSetupNS and RunTrialNS sum core.NewAttackSystem and
	// core.RunTrial over the matrix cells.
	AttackSetupNS float64   `json:"attack_setup_ns"`
	RunTrialNS    float64   `json:"run_trial_ns"`
	Figure7NS     []float64 `json:"figure7_ns"`
	EvalNS        []float64 `json:"eval_ns"`
	EvalCycles    []int64   `json:"eval_cycles"`
	// BusyShardNS sums the shard spans of the in-process regenerations,
	// BusyRunNS their experiment.Run wall times.
	BusyShardNS float64 `json:"busy_shard_ns"`
	BusyRunNS   float64 `json:"busy_run_ns"`
	// Codec holds the encoding and coordinator samples per experiment.
	Codec map[string]*codecSamples `json:"codec"`
}

type codecSamples struct {
	EncodeNS        []float64 `json:"encode_ns"`
	DecodeNS        []float64 `json:"decode_ns"`
	Bytes           []float64 `json:"bytes"`
	LeaseNS         []float64 `json:"lease_ns"`
	ResultNS        []float64 `json:"result_ns"`
	JournalResultNS []float64 `json:"journal_result_ns"`
	PostNS          []float64 `json:"post_ns"`
}

// Probe sample counts: enough for stable medians, small enough that the
// whole probe stays a few seconds.
const (
	probeFigure7Shards = 200
	probeCodecOps      = 2000
	probeLeases        = 100
	probePosts         = 200
)

// runProbes times each layer's public functions at the params of the
// given steps, one probe per experiment.
func runProbes(steps []step, rec *recorder) (*probeResult, error) {
	res := &probeResult{Codec: map[string]*codecSamples{}}
	values := map[string][]any{}
	for _, s := range steps {
		if _, done := values[s.Exp]; done {
			continue
		}
		var err error
		switch s.Exp {
		case results.ExpTable1, results.ExpConcordance:
			values[results.ExpTable1], values[results.ExpConcordance], err = probeMatrix(s.Params.Schemes, res, rec)
		case results.ExpFigure7:
			values[s.Exp], err = probeFigure7(s.Params, res, rec)
		case results.ExpFigure12:
			values[s.Exp], err = probeDefense(s.Params, res, rec)
		default:
			err = fmt.Errorf("no layer probe for %s", s.Exp)
		}
		if err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp("", "specbench-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, s := range steps {
		if s.Backend == "inprocess" {
			if err := probeBusy(s, res, rec); err != nil {
				return nil, err
			}
		}
		if res.Codec[s.Exp] != nil {
			continue
		}
		cs := &codecSamples{}
		res.Codec[s.Exp] = cs
		if err := probeCodec(s, values[s.Exp], cs, rec, dir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probeMatrix times every Table 1 cell: core.MatrixShard, the cold
// attack path (core.NewAttackSystem, core.RunTrial) and
// detect.CellVerdict. It returns the table1 and concordance shard values.
func probeMatrix(names []string, res *probeResult, rec *recorder) (cells, conc []any, err error) {
	for j := 0; j < core.MatrixShards(names); j++ {
		combo := core.Combos()[j/len(names)]
		name := names[j%len(names)]
		g, ord := combo[0].(core.Gadget), combo[1].(core.Ordering)

		var cell core.MatrixCell
		d := rec.timed(0, "core.MatrixShard", "core", func() { cell, err = core.MatrixShard(names, j) })
		if err != nil {
			return nil, nil, err
		}
		res.MatrixCellNS = append(res.MatrixCellNS, float64(d))

		// Stateful policies must be fresh per trial.
		spec := core.TrialSpec{Gadget: g, Ordering: ord}
		if spec.Policy, err = schemes.ByName(name); err != nil {
			return nil, nil, err
		}
		d = rec.timed(0, "core.NewAttackSystem", "core", func() { _, _, _, err = core.NewAttackSystem(spec) })
		if err != nil {
			return nil, nil, err
		}
		res.AttackSetupNS += float64(d)
		spec.Policy, _ = schemes.ByName(name)
		d = rec.timed(0, "core.RunTrial", "core", func() { _, err = core.RunTrial(spec) })
		if err != nil {
			return nil, nil, err
		}
		res.RunTrialNS += float64(d)

		d = rec.timed(0, "detect.CellVerdict", "detect", func() { _, err = detect.CellVerdict(name, g, ord) })
		if err != nil {
			return nil, nil, err
		}
		res.VerdictNS = append(res.VerdictNS, float64(d))

		dc, err := detect.Shard(names, j)
		if err != nil {
			return nil, nil, err
		}
		cells, conc = append(cells, cell), append(conc, dc)
	}
	return cells, conc, nil
}

// probeFigure7 times core.Figure7Shard on shards spread evenly over both
// arms.
func probeFigure7(p results.Params, res *probeResult, rec *recorder) ([]any, error) {
	n, err := core.Figure7Shards(p.Trials)
	if err != nil {
		return nil, err
	}
	k := min(n, probeFigure7Shards)
	var vals []any
	for i := 0; i < k; i++ {
		var v float64
		d := rec.timed(0, "core.Figure7Shard", "core", func() { v, err = core.Figure7Shard(p.Trials, p.Jitter, p.Seed, i*n/k) })
		if err != nil {
			return nil, err
		}
		res.Figure7NS = append(res.Figure7NS, float64(d))
		vals = append(vals, v)
	}
	return vals, nil
}

// probeDefense times workload.EvalShard on every Figure 12 cell, one at a
// time, and keeps each cell's simulated cycle count.
func probeDefense(p results.Params, res *probeResult, rec *recorder) ([]any, error) {
	cfg := workload.EvalConfig{Iters: p.Iters, Schemes: p.Schemes, Cores: 1}.Normalize()
	var vals []any
	for j := 0; j < workload.EvalShards(cfg); j++ {
		var cell workload.Cell
		var err error
		d := rec.timed(0, "workload.EvalShard", "workload", func() { cell, err = workload.EvalShard(cfg, j) })
		if err != nil {
			return nil, err
		}
		res.EvalNS = append(res.EvalNS, float64(d))
		res.EvalCycles = append(res.EvalCycles, cell.Cycles)
		vals = append(vals, cell)
	}
	return vals, nil
}

// probeBusy regenerates an in-process step with traced shards and adds
// its shard time and run wall time to the busy-fraction sums.
func probeBusy(s step, res *probeResult, rec *recorder) error {
	base, err := experiment.Lookup(s.Exp)
	if err != nil {
		return err
	}
	runID, start := rec.open(), time.Now()
	_, err = experiment.Run(context.Background(), rec.wrap(base, runID), s.Params, experiment.InProcess{Workers: maxWorkers}, nil)
	rec.close(runID, 0, "experiment.Run "+s.Exp, "experiment", start)
	res.BusyRunNS += float64(time.Since(start))
	res.BusyShardNS += rec.childTime(runID, s.Exp+".shard")
	return err
}

// childTime sums the durations of parent's child spans with this name.
func (r *recorder) childTime(parent int, name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum float64
	for _, sp := range r.spans {
		if sp.Parent == parent && sp.Name == name {
			sum += float64(sp.End - sp.Start)
		}
	}
	return sum
}

// probeCodec times the shard wire format (experiment.ShardLine encode,
// and decode into the spec's shard type) and the remote coordinator's
// /lease and /results handlers, in memory with the journal off and on
// and over loopback HTTP. Shard values repeat cyclically: the
// coordinator decodes results but does not recompute them.
func probeCodec(s step, vals []any, cs *codecSamples, rec *recorder, dir string) error {
	spec, err := experiment.Lookup(s.Exp)
	if err != nil {
		return err
	}
	n, err := spec.Plan(s.Params)
	if err != nil {
		return err
	}
	raws := make([]json.RawMessage, len(vals))
	rec.timed(0, "experiment.codec "+s.Exp, "experiment", func() {
		for i := 0; len(cs.EncodeNS) < probeCodecOps && err == nil; i++ {
			v := vals[i%len(vals)]
			t0 := time.Now()
			raw, _ := json.Marshal(v)
			line, _ := json.Marshal(experiment.ShardLine{Shard: i, Value: raw})
			t1 := time.Now()
			var sl experiment.ShardLine
			if err = json.Unmarshal(line, &sl); err == nil {
				_, err = experiment.DecodeShard(spec, sl.Value)
			}
			cs.EncodeNS = append(cs.EncodeNS, float64(t1.Sub(t0)))
			cs.DecodeNS = append(cs.DecodeNS, float64(time.Since(t1)))
			cs.Bytes = append(cs.Bytes, float64(len(line)))
			raws[i%len(vals)] = raw
		}
	})
	if err != nil {
		return err
	}
	for run := 0; len(cs.LeaseNS) < probeLeases && err == nil; run++ {
		rec.timed(0, "remote.handler "+s.Exp, "remote", func() {
			err = probeHandler(spec, s.Params, n, raws, "", &cs.LeaseNS, &cs.ResultNS)
		})
		if err == nil {
			var lease []float64
			journal := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", s.Exp, run))
			rec.timed(0, "remote.handler+journal "+s.Exp, "remote", func() {
				err = probeHandler(spec, s.Params, n, raws, journal, &lease, &cs.JournalResultNS)
			})
		}
	}
	if err != nil {
		return err
	}
	rec.timed(0, "remote.post "+s.Exp, "remote", func() { err = probePost(spec, s.Params, n, raws, &cs.PostNS) })
	return err
}

// probeHandler serves one whole run through a fresh coordinator's
// handler in memory, as a single worker: lease a chunk, post each of its
// shards as its own /results request, repeat until done. It appends the
// time of each /lease and each /results call.
func probeHandler(spec *experiment.Spec, p results.Params, n int, raws []json.RawMessage, journal string, leaseNS, resultNS *[]float64) error {
	coord, err := remote.NewCoordinator(spec, p, n, remote.Config{Journal: journal})
	if err != nil {
		return err
	}
	defer coord.Close()
	h := coord.Handler()
	serve := func(path string, body []byte, out any) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(start)
		if w.Code != http.StatusOK {
			return d, fmt.Errorf("probe %s: %d %s", path, w.Code, w.Body.Bytes())
		}
		return d, json.Unmarshal(w.Body.Bytes(), out)
	}
	run := coord.Stats().Run
	for {
		var grant remote.Lease
		d, err := serve("/lease", mustJSON(remote.LeaseRequest{Worker: "probe", Run: run}), &grant)
		if err != nil {
			return err
		}
		if grant.Done || grant.Wait {
			return nil
		}
		*leaseNS = append(*leaseNS, float64(d))
		for i := grant.Start; i < grant.End; i++ {
			line := remote.ResultLine{Run: run, Lease: grant.ID, ShardLine: experiment.ShardLine{Shard: i, Value: raws[i%len(raws)]}}
			var ack remote.ResultAck
			d, err := serve("/results", append(mustJSON(line), '\n'), &ack)
			if err != nil {
				return err
			}
			*resultNS = append(*resultNS, float64(d))
		}
	}
}

// probePost times single-line POST /results requests through a loopback
// HTTP server and client: the per-shard cost a remote worker pays.
func probePost(spec *experiment.Spec, p results.Params, n int, raws []json.RawMessage, postNS *[]float64) error {
	coord, err := remote.NewCoordinator(spec, p, n, remote.Config{})
	if err != nil {
		return err
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := srv.Client()
	post := func(path string, body []byte, out any) error {
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("probe %s: %s %s", path, resp.Status, raw)
		}
		return json.Unmarshal(raw, out)
	}
	run := coord.Stats().Run
	for len(*postNS) < probePosts {
		var grant remote.Lease
		if err := post("/lease", mustJSON(remote.LeaseRequest{Worker: "probe", Run: run}), &grant); err != nil {
			return err
		}
		if grant.Done || grant.Wait {
			return nil
		}
		for i := grant.Start; i < grant.End && len(*postNS) < probePosts; i++ {
			body := append(mustJSON(remote.ResultLine{Run: run, Lease: grant.ID, ShardLine: experiment.ShardLine{Shard: i, Value: raws[i%len(raws)]}}), '\n')
			var ack remote.ResultAck
			start := time.Now()
			if err := post("/results", body, &ack); err != nil {
				return err
			}
			*postNS = append(*postNS, float64(time.Since(start)))
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // protocol documents are plain data
	}
	return b
}
