package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// childArg is the argv marker of a regeneration child: the driver
// re-execs its own binary with it, writes a childRequest on the child's
// stdin and reads one childReport from its stdout.
const childArg = "-specbench-child"

type childRequest struct {
	Steps []step `json:"steps,omitempty"`
	// Trace records spans around the regeneration's layer calls.
	Trace bool `json:"trace,omitempty"`
	// Journal is the fresh directory for steps that journal.
	Journal string `json:"journal,omitempty"`
	// Probe, when set, makes this a traced probe child: instead of
	// regenerating, it times the layers' public functions at these steps'
	// params.
	Probe []step `json:"probe,omitempty"`
}

type childReport struct {
	// MainNS is the wall clock (Unix ns) at the child's main entry, after
	// package init; RunNS at its first experiment.Run call; FirstDoneNS at
	// its first completed shard.
	MainNS      int64             `json:"main_ns"`
	RunNS       int64             `json:"run_ns,omitempty"`
	FirstDoneNS int64             `json:"first_done_ns,omitempty"`
	Records     []*results.Record `json:"records,omitempty"`
	// HWMKB is the child's own VmHWM; ChildrenRSSKB the largest maxrss of
	// its reaped worker processes. Both in KiB.
	HWMKB         int64 `json:"hwm_kb"`
	ChildrenRSSKB int64 `json:"children_rss_kb"`
	// RemoteShards, BackupsIssued and BackupsWon come from the remote
	// backend's end-of-run summary line: shards served, backup leases
	// issued, and shards whose accepted result came from a backup lease.
	RemoteShards  int          `json:"remote_shards,omitempty"`
	BackupsIssued int          `json:"backups_issued,omitempty"`
	BackupsWon    int          `json:"backups_won,omitempty"`
	Spans         []span       `json:"spans,omitempty"`
	Probe         *probeResult `json:"probe,omitempty"`
	Err           string       `json:"err,omitempty"`
}

// childMain serves one child request and returns the exit code.
func childMain(stdin io.Reader, stdout io.Writer) int {
	rep := childReport{MainNS: time.Now().UnixNano()}
	var req childRequest
	err := json.NewDecoder(stdin).Decode(&req)
	if err == nil {
		var rec *recorder
		if req.Trace || req.Probe != nil {
			rec = &recorder{}
		}
		if req.Probe != nil {
			rep.Probe, err = runProbes(req.Probe, rec)
		} else {
			err = regenerate(req, &rep, rec)
		}
		if rec != nil {
			rep.Spans = rec.spans
		}
	}
	if err != nil {
		rep.Err = err.Error()
	}
	rep.HWMKB = vmHWM()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		rep.ChildrenRSSKB = ru.Maxrss
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil || rep.Err != "" {
		return 1
	}
	return 0
}

// regenerate runs the request's steps in order, each through
// experiment.Run on its backend, and fills the report.
func regenerate(req childRequest, rep *childReport, rec *recorder) error {
	var firstDone atomic.Int64
	done := func() { firstDone.CompareAndSwap(0, time.Now().UnixNano()) }
	for _, s := range req.Steps {
		base, err := experiment.Lookup(s.Exp)
		if err != nil {
			return err
		}
		var diag bytes.Buffer
		b, err := s.backend(req.Journal, &diag)
		if err != nil {
			return err
		}
		runID, start := rec.open(), time.Now()
		spec := rec.wrap(base, runID)
		if rep.RunNS == 0 {
			rep.RunNS = start.UnixNano()
		}
		r, err := experiment.Run(context.Background(), spec, s.Params, b, done)
		// Shards of the subprocess and remote backends run in worker
		// processes this one cannot see into, so the run's self time there
		// belongs to the backend: transport, scheduling and the workers'
		// compute.
		layer := "experiment"
		if s.Backend != "inprocess" {
			layer = s.Backend
		}
		rec.close(runID, 0, "experiment.Run "+s.Exp, layer, start)
		if err != nil {
			return fmt.Errorf("%s on %s: %w\n%s", s.Exp, s.Backend, err, diag.Bytes())
		}
		shards, issued, won := remoteBackups(diag.String())
		rep.RemoteShards += shards
		rep.BackupsIssued += issued
		rep.BackupsWon += won
		rep.Records = append(rep.Records, r)
	}
	rep.FirstDoneNS = firstDone.Load()
	return nil
}

// remoteBackups parses the remote backend's "remote: run complete"
// summary line (zeros without one).
func remoteBackups(diag string) (shards, issued, won int) {
	const marker = "remote: run complete: "
	if i := strings.LastIndex(diag, marker); i >= 0 {
		fmt.Sscanf(diag[i+len(marker):], "%d shards; backups: %d issued, %d won", &shards, &issued, &won)
	}
	return shards, issued, won
}

// vmHWM reads the process's peak resident set from /proc/self/status,
// in KiB (0 where unavailable). Unlike the rusage maxrss, it starts
// fresh at exec.
func vmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// span is one timed call into a layer. IDs are local to the process
// that recorded them; parent 0 is the process's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"` // Unix ns
	End    int64  `json:"end"`
}

// recorder collects spans in memory. A nil recorder records nothing, so
// untraced code paths call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	last  int
	spans []span
}

// open reserves a span id, so children can name their parent before it
// closes.
func (r *recorder) open() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	return r.last
}

// close records span id as running from start until now.
func (r *recorder) close(id, parent int, name, layer string, start time.Time) {
	if r == nil {
		return
	}
	end := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Start: start.UnixNano(), End: end})
}

// timed records one call of f as a child span of parent.
func (r *recorder) timed(parent int, name, layer string, f func()) time.Duration {
	id, start := r.open(), time.Now()
	f()
	r.close(id, parent, name, layer, start)
	return time.Since(start)
}

// shardLayer names the layer a spec's shard function belongs to.
var shardLayer = map[string]string{
	results.ExpTable1:      "core",
	results.ExpConcordance: "detect",
	results.ExpFigure7:     "core",
	results.ExpFigure11:    "core",
	results.ExpFigure12:    "workload",
}

// wrap returns a copy of spec whose Run and Aggregate record spans under
// parent. Only the copy changes: workers of the subprocess and remote
// backends look specs up by name, so there only Aggregate is traced. A
// nil recorder returns spec itself.
func (r *recorder) wrap(spec *experiment.Spec, parent int) *experiment.Spec {
	if r == nil {
		return spec
	}
	w := *spec
	run, agg := spec.Run, spec.Aggregate
	w.Run = func(ctx context.Context, state any, p results.Params, i int) (v any, err error) {
		r.timed(parent, spec.Name+".shard", shardLayer[spec.Name], func() { v, err = run(ctx, state, p, i) })
		return v, err
	}
	w.Aggregate = func(p results.Params, shards []any) (rec *results.Record, err error) {
		r.timed(parent, spec.Name+".Aggregate", "experiment", func() { rec, err = agg(p, shards) })
		return rec, err
	}
	return &w
}
