package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"syscall"
	"time"

	"specinterference/internal/experiment"
)

// childTimeout bounds one child process; a regeneration takes about a
// second.
const childTimeout = 60 * time.Second

// driver runs a benchmark set: rounds of one calibration followed by
// each selected workload's regenerations, every one a fresh child.
type driver struct {
	exe string
	// table is the full workload table; the probe child covers all of
	// its steps, so a traced run of any one workload reports every
	// per-layer metric.
	table    []*workloadSpec
	selected []*workloadSpec
	rounds   int
	// seconds, when positive, replaces rounds: rounds run until this
	// much measuring time has passed.
	seconds float64
	trace   bool
	// expect maps step keys to expected record hashes; entries present
	// before the run take precedence.
	expect map[string]string
	log    io.Writer

	start  time.Time
	calib  []float64
	regens int
	probe  *sample
}

// sample is one child process as the driver saw it. Times are raw
// seconds, uncalibrated.
type sample struct {
	round  int
	traced bool
	err    error
	wall   float64
	cpu    float64
	setup  float64
	init   float64
	rssMB  float64
	start  int64 // Unix ns at exec
	end    int64
	id     int
	report childReport
}

// expectations fills d.expect for every selected step it does not
// already hold: the committed results baseline when it has the step's
// params, else the pinned hash, else a reference regeneration in this
// process on one worker.
func (d *driver) expectations(ctx context.Context) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if d.expect == nil {
		d.expect = map[string]string{}
	}
	for _, w := range d.selected {
		for _, s := range w.steps {
			k := s.key()
			if _, ok := d.expect[k]; ok {
				continue
			}
			if h, ok, err := baselineHash(root, s); err != nil {
				return err
			} else if ok {
				d.expect[k] = h
				continue
			}
			if h, ok := pinned[k]; ok {
				d.expect[k] = h
				continue
			}
			spec, err := experiment.Lookup(s.Exp)
			if err != nil {
				return err
			}
			rec, err := experiment.Run(ctx, spec, s.Params, experiment.InProcess{Workers: 1}, nil)
			if err != nil {
				return fmt.Errorf("reference %s: %w", s.Exp, err)
			}
			d.expect[k] = rec.Hash
		}
	}
	return nil
}

// run executes the rounds and returns every sample by workload name.
func (d *driver) run(ctx context.Context) (map[string][]*sample, error) {
	if err := d.expectations(ctx); err != nil {
		return nil, err
	}
	// Warm up untimed: the kernel's heap, and the page cache holding this
	// binary and the files a regeneration touches.
	for i := 0; i < 3; i++ {
		calibrate()
	}
	for _, w := range d.selected {
		d.regenerate(ctx, w, 0, false)
	}
	out := map[string][]*sample{}
	d.start = time.Now()
	for round := 0; ; round++ {
		if d.seconds > 0 {
			if round > 0 && time.Since(d.start).Seconds() >= d.seconds {
				break
			}
		} else if round == d.rounds {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d.calib = append(d.calib, calibrate())
		if d.trace && round == 0 {
			var probe []step
			for _, w := range d.table {
				probe = append(probe, w.steps...)
			}
			d.probe = d.spawn(ctx, childRequest{Probe: probe}, round, true)
			if d.probe.err != nil {
				return nil, fmt.Errorf("probe: %w", d.probe.err)
			}
		}
		for _, w := range d.selected {
			for i := 0; i < w.perRound; i++ {
				modes := []bool{false}
				if d.trace {
					// Alternate which side goes first, so neither owns the
					// warmer slot.
					modes = []bool{(round+i)%2 == 1, (round+i)%2 == 0}
				}
				for _, traced := range modes {
					s := d.regenerate(ctx, w, round, traced)
					if s.err != nil {
						fmt.Fprintf(d.log, "specbench: %s regeneration %d failed: %v\n", w.name, s.id, s.err)
					}
					out[w.name] = append(out[w.name], s)
				}
			}
		}
	}
	return out, nil
}

// regenerate runs one regeneration of w in a fresh child and checks its
// records.
func (d *driver) regenerate(ctx context.Context, w *workloadSpec, round int, traced bool) *sample {
	req := childRequest{Steps: w.steps, Trace: traced}
	if slices.ContainsFunc(w.steps, func(s step) bool { return s.Journal }) {
		dir, err := os.MkdirTemp("", "specbench-journal-")
		if err != nil {
			return &sample{round: round, traced: traced, err: err}
		}
		defer os.RemoveAll(dir)
		req.Journal = dir
	}
	s := d.spawn(ctx, req, round, traced)
	if s.err != nil {
		return s
	}
	if len(s.report.Records) != len(w.steps) {
		s.err = fmt.Errorf("child returned %d records for %d steps", len(s.report.Records), len(w.steps))
		return s
	}
	for i, st := range w.steps {
		if err := checkRecord(st, s.report.Records[i], d.expect[st.key()]); err != nil {
			s.err = err
			return s
		}
	}
	if s.report.FirstDoneNS == 0 {
		s.err = fmt.Errorf("no shard completed")
		return s
	}
	s.setup = float64(s.report.FirstDoneNS-s.start) / 1e9
	return s
}

// spawn execs one child with req on its stdin and waits for it. The
// child runs in its own process group, so a timeout or interrupt kills
// its backend workers with it.
func (d *driver) spawn(ctx context.Context, req childRequest, round int, traced bool) *sample {
	d.regens++
	s := &sample{round: round, traced: traced, id: d.regens}
	in, err := json.Marshal(req)
	if err != nil {
		s.err = err
		return s
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, d.exe, childArg)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout, stderr bytes.Buffer
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(in), &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	end := time.Now()
	s.start, s.end = start.UnixNano(), end.UnixNano()
	s.wall = end.Sub(start).Seconds()
	if st := cmd.ProcessState; st != nil {
		s.cpu = (st.UserTime() + st.SystemTime()).Seconds()
	}
	if jerr := json.Unmarshal(stdout.Bytes(), &s.report); jerr != nil && err == nil {
		err = fmt.Errorf("child report: %w", jerr)
	}
	switch {
	case s.report.Err != "":
		s.err = fmt.Errorf("%s", s.report.Err)
	case err != nil:
		s.err = fmt.Errorf("child: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	s.init = float64(s.report.MainNS-s.start) / 1e9
	s.rssMB = float64(max(s.report.HWMKB, s.report.ChildrenRSSKB)) / 1024
	return s
}

// scale is the calibration factor of a round: calRefS / calib_s.
func (d *driver) scale(round int) float64 { return calRefS / d.calib[round] }
