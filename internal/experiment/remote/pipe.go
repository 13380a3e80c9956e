package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
	"specinterference/internal/runner"
)

// The coordinator's pipe framing, both ends: the subprocess backend
// writes each grant to a -shard-worker process as one workerRequest
// line, and the worker streams one experiment.ShardLine per shard back,
// with no acks, renewals or lease ids of its own.

// shardWorkerArg is the hidden CLI argument (argv[1]) naming pipe-worker
// mode.
const shardWorkerArg = "-shard-worker"

// workerRequest is one grant written to a pipe worker: run shards
// [Start, End) of the named experiment. A worker serves a stream of
// these, one JSON value at a time, until stdin closes.
type workerRequest struct {
	Experiment string         `json:"experiment"`
	Params     results.Params `json:"params"`
	// Start and End bound the grant's shard range: [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
}

// runSubprocess is experiment.Subprocess's Run: a coordinator with no
// HTTP server and no journal, driving -shard-worker processes over their
// pipes. Worker stderr is the only output.
func runSubprocess(ctx context.Context, b experiment.Subprocess, spec *experiment.Spec, p results.Params, n int, done func()) ([]any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return nil, ctx.Err()
	}
	coord, err := NewCoordinator(spec, p, n, Config{OnShardDone: done})
	if err != nil {
		return nil, err
	}
	if err := drivePipeWorkers(ctx, b, coord); err != nil {
		return nil, err
	}
	return coord.Values()
}

// drivePipeWorkers spawns b.Procs -shard-worker processes (clamped by
// runner.Workers) and drives them over their pipes until coord's run is
// over.
func drivePipeWorkers(ctx context.Context, b experiment.Subprocess, coord *Coordinator) error {
	stderr := b.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	workers, err := spawnWorkers(ctx, runner.Workers(b.Procs, coord.n), "worker", []string{shardWorkerArg}, stderr,
		func(id int, stdin io.WriteCloser, stdout io.Reader, kill func()) error {
			return coord.drive(ctx, fmt.Sprintf("worker %d", id), stdin, stdout, kill)
		})
	if err != nil {
		return err
	}
	return workers.wait(ctx, coord)
}

// drive serves one pipe worker, named worker in the coordinator's
// grants, until the run is over: grant a span, write it as a request,
// then read and accept a line per shard. A line that does not parse,
// names a shard outside the grant or repeats one ends the worker like a
// crash does: it is killed and its lease dropped, so the undone
// remainder is requeued for the others.
func (c *Coordinator) drive(ctx context.Context, worker string, stdin io.WriteCloser, stdout io.Reader, kill func()) error {
	enc := json.NewEncoder(stdin)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for {
		g := c.grant(worker)
		switch {
		case g.Done:
			// Closing stdin is the shutdown signal; Wait may close stdout
			// only once it has been read to EOF.
			stdin.Close()
			for sc.Scan() {
			}
			return nil
		case g.Wait:
			select {
			case <-c.Finished():
			case <-time.After(time.Duration(g.PollMillis) * time.Millisecond):
			case <-ctx.Done():
				kill()
				return ctx.Err()
			}
			continue
		}
		err := enc.Encode(workerRequest{
			Experiment: c.spec.Name, Params: c.params,
			Start: g.Start, End: g.End,
		})
		if err == nil {
			err = c.collect(g, sc)
		}
		if err != nil {
			kill()
			c.release(g.ID)
			return err
		}
	}
}

// collect reads the worker's lines for grant g until every shard of the
// span has reported once, accepting each under g's lease as a one-line
// result body and renewing the lease as they arrive. A renewal that
// finds the lease expired (a shard slower than the TTL) is no error: the
// remainder was requeued, and the worker's later lines are still
// accepted, as an HTTP straggler's are.
func (c *Coordinator) collect(g Lease, sc *bufio.Scanner) error {
	seen := make([]bool, g.End-g.Start)
	for got := 0; got < len(seen); {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return fmt.Errorf("[%d,%d): %w", g.Start, g.End, err)
			}
			return fmt.Errorf("stdout closed after %d of %d shard results in [%d,%d)", got, len(seen), g.Start, g.End)
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var sl experiment.ShardLine
		if err := json.Unmarshal(line, &sl); err != nil {
			return fmt.Errorf("[%d,%d): bad result line: %w", g.Start, g.End, err)
		}
		switch {
		case sl.Shard < g.Start || sl.Shard >= g.End:
			return fmt.Errorf("[%d,%d): returned out-of-grant shard %d", g.Start, g.End, sl.Shard)
		case seen[sl.Shard-g.Start]:
			return fmt.Errorf("[%d,%d): returned shard %d twice", g.Start, g.End, sl.Shard)
		}
		seen[sl.Shard-g.Start] = true
		got++
		if _, err := c.accept(g.ID, sl); err != nil {
			return err
		}
		c.finishBody(1)
		c.renew(g.ID)
	}
	return nil
}

// workerMain is the pipe-worker body: decode requests from stdin one at
// a time, run each range through the shardRunner the HTTP worker shares,
// streaming a line per shard as it completes, and exit cleanly at EOF
// (the parent closed the pipe: no more work). Spec lookup and state
// preparation happen once, on the first request — every request in a
// session names the same experiment and params. Returns the process
// exit code.
func workerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	dec := json.NewDecoder(stdin)
	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	enc := json.NewEncoder(bw)
	emit := func(sl experiment.ShardLine) error {
		if err := enc.Encode(sl); err != nil {
			return err
		}
		// Flush per line so the parent sees progress as shards complete.
		return bw.Flush()
	}

	var r *shardRunner
	for {
		var req workerRequest
		if err := dec.Decode(&req); err == io.EOF {
			return 0
		} else if err != nil {
			fmt.Fprintln(stderr, "shard-worker: bad request:", err)
			return 2
		}
		if req.Start < 0 || req.End < req.Start {
			fmt.Fprintf(stderr, "shard-worker: bad shard range [%d,%d)\n", req.Start, req.End)
			return 2
		}
		if r == nil {
			var err error
			if r, err = newShardRunner(req.Experiment, req.Params, "shard-worker", stderr); err != nil {
				fmt.Fprintln(stderr, "shard-worker:", err)
				return 1
			}
		} else if req.Experiment != r.spec.Name {
			fmt.Fprintf(stderr, "shard-worker: experiment changed mid-session: %s -> %s\n", r.spec.Name, req.Experiment)
			return 2
		}
		if err := r.run(context.Background(), span{Start: req.Start, End: req.End}, emit); err != nil {
			fmt.Fprintln(stderr, "shard-worker:", err)
			return 1
		}
	}
}
