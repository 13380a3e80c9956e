// Package faulttest hardens the remote backend with deliberately
// misbehaving workers. The Shim speaks the coordinator's wire protocol
// by hand — no help from the well-behaved remote.RunWorker path — so
// tests can crash mid-chunk, stall past a lease, stream malformed,
// duplicate, out-of-range or corrupted result lines, and then assert
// two things: the coordinator rejected or absorbed the misbehavior, and
// a healthy worker still drove the run to the exact committed baseline
// signature. Crash tolerance that changes the answer is not tolerance.
package faulttest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"specinterference/internal/experiment"
	"specinterference/internal/experiment/remote"
	"specinterference/internal/results"
)

// Shim is a hand-rolled remote worker with no conscience: it exposes the
// raw protocol moves (lease, renew, post arbitrary bytes) and composed
// misbehaviors built from them. It never renews a lease unless told to —
// a Shim that stops calling is indistinguishable from a crashed machine,
// which is the point.
type Shim struct {
	// Base is the coordinator's base URL (no trailing slash).
	Base string
	// Run is the run token echoed on every request. Sync fills it from
	// the coordinator's job; leave it stale (or forge it) to play a
	// worker from another run.
	Run string
	// Client overrides the HTTP client (nil = http.DefaultClient).
	Client *http.Client
}

func (s *Shim) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return http.DefaultClient
}

// Job fetches the coordinator's job description.
func (s *Shim) Job() (remote.Job, error) {
	resp, err := s.client().Get(s.Base + "/job")
	if err != nil {
		return remote.Job{}, err
	}
	defer resp.Body.Close()
	var job remote.Job
	if resp.StatusCode != http.StatusOK {
		return job, fmt.Errorf("job: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	return job, err
}

// Sync fetches the job and adopts its run token — what a well-behaved
// worker does before its first lease.
func (s *Shim) Sync() (remote.Job, error) {
	job, err := s.Job()
	if err == nil {
		s.Run = job.Run
	}
	return job, err
}

// Lease claims the next chunk under the given worker identity.
func (s *Shim) Lease(worker string) (remote.Lease, error) {
	body, _ := json.Marshal(remote.LeaseRequest{Worker: worker, Run: s.Run})
	resp, err := s.client().Post(s.Base+"/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		return remote.Lease{}, err
	}
	defer resp.Body.Close()
	var l remote.Lease
	if resp.StatusCode != http.StatusOK {
		return l, fmt.Errorf("lease: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&l)
	return l, err
}

// Stats fetches the coordinator's GET /stats snapshot — run progress,
// the speculative-backup counters, the /results traffic and the cost
// estimate.
func (s *Shim) Stats() (remote.Stats, error) {
	resp, err := s.client().Get(s.Base + "/stats")
	if err != nil {
		return remote.Stats{}, err
	}
	defer resp.Body.Close()
	var st remote.Stats
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// Renew renews a lease and returns the HTTP status (200 alive, 410 gone).
func (s *Shim) Renew(leaseID string) (int, error) {
	body, _ := json.Marshal(remote.RenewRequest{ID: leaseID, Run: s.Run})
	resp, err := s.client().Post(s.Base+"/renew", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// PostRaw streams arbitrary bytes to /results, returning the HTTP status
// and the coordinator's acknowledgment (zero-valued when the response
// body isn't a ResultAck).
func (s *Shim) PostRaw(body []byte) (int, remote.ResultAck, error) {
	resp, err := s.client().Post(s.Base+"/results", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, remote.ResultAck{}, err
	}
	defer resp.Body.Close()
	var ack remote.ResultAck
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, ack, err
	}
	json.Unmarshal(raw, &ack)
	return resp.StatusCode, ack, nil
}

// PostLine posts one well-formed result line under a lease.
func (s *Shim) PostLine(leaseID string, sl experiment.ShardLine) (int, remote.ResultAck, error) {
	raw, err := json.Marshal(remote.ResultLine{Run: s.Run, Lease: leaseID, ShardLine: sl})
	if err != nil {
		return 0, remote.ResultAck{}, err
	}
	return s.PostRaw(append(raw, '\n'))
}

// PostErrorLine posts a shard-failure line under a lease — the
// straggler poison move: a worker whose lease was re-issued reporting
// a failure for work someone else already finished.
func (s *Shim) PostErrorLine(leaseID string, shard int, msg string) (int, remote.ResultAck, error) {
	return s.PostLine(leaseID, experiment.ShardLine{Shard: shard, Err: msg})
}

// CorrectLine computes the honest result line for one shard — what a
// healthy worker would stream. Misbehaviors are built by withholding,
// duplicating or mangling these.
func (s *Shim) CorrectLine(spec *experiment.Spec, state any, p results.Params, shard int) (experiment.ShardLine, error) {
	v, err := spec.Run(context.Background(), state, p, shard)
	if err != nil {
		return experiment.ShardLine{}, err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return experiment.ShardLine{}, err
	}
	return experiment.ShardLine{Shard: shard, Value: raw}, nil
}

// CrashMidChunk leases a chunk, streams correct results for its first
// `complete` shards, then vanishes — no more posts, no renewals. The
// coordinator must re-issue the rest of the chunk after the lease TTL
// and keep the shards the shim did finish. Returns the abandoned lease.
func (s *Shim) CrashMidChunk(spec *experiment.Spec, state any, p results.Params, complete int) (remote.Lease, error) {
	l, err := s.Lease("crash-shim")
	if err != nil {
		return l, err
	}
	if l.Wait || l.Done {
		return l, fmt.Errorf("crash shim got no chunk: %+v", l)
	}
	for shard := l.Start; shard < l.End && shard < l.Start+complete; shard++ {
		sl, err := s.CorrectLine(spec, state, p, shard)
		if err != nil {
			return l, err
		}
		if status, ack, err := s.PostLine(l.ID, sl); err != nil || status != http.StatusOK {
			return l, fmt.Errorf("crash shim post shard %d: status %d ack %+v err %v", shard, status, ack, err)
		}
	}
	return l, nil // ...and the process is gone.
}

// StallPastLease leases a chunk and does nothing at all with it: no
// results, no renewal — the slow-machine failure mode. Returns the
// doomed lease.
func (s *Shim) StallPastLease() (remote.Lease, error) {
	l, err := s.Lease("stall-shim")
	if err != nil {
		return l, err
	}
	if l.Wait || l.Done {
		return l, fmt.Errorf("stall shim got no chunk: %+v", l)
	}
	return l, nil
}
