// Package remote is the one shard scheduler, Coordinator, in two
// framings: the remote backend serves it over HTTP to workers on any
// machine that can reach it, and the subprocess backend drives local
// -shard-worker processes over their pipes (pipe.go). It leases small
// shard chunks, re-issuing dropped or expired leases so crashed or
// stalled workers cost wall-clock, never correctness.
//
// The HTTP wire protocol is five JSON endpoints on the coordinator:
//
//	GET  /job      -> Job          the experiment, params and shard count
//	POST /lease    LeaseRequest -> Lease   claim the next chunk (or wait/done)
//	POST /renew    RenewRequest -> Renewal  extend a held lease's TTL
//	POST /results  ResultLine JSON lines -> ResultAck   one or more shard results
//	GET  /stats    -> Stats        progress, backup counters, result traffic
//
// Workers are the same binary in a hidden -remote-worker mode; they fetch
// the job once, then loop lease → run the chunk's shards one at a time
// (the shardRunner the pipe worker shares) → post results in two
// /results bodies per chunk: the chunk's first result alone as soon as it exists, which
// marks the lease started, and every later result together once the
// chunk is over, a failing shard's error line included. The grant size
// is therefore the one granularity of scheduling, progress, backup
// overlap and crash loss. A worker's chunk ends only when its last body
// is acked.
// A worker that dies mid-chunk simply stops renewing: the lease expires
// and the chunk's unfinished shards go back in the queue for someone
// else. Results are deduplicated by shard index with a byte-equality
// assertion — under the repo's determinism contract two workers that run
// the same shard must produce identical bytes, so a mismatch is a fatal
// contract violation, not something to paper over.
//
// That dedup also buys speculative backup execution for free: when the
// pending queue drains but grants are still in flight, an idle worker is
// handed a backup copy of the oldest grant's undone remainder (never the
// holder's own; at most one live backup per span) instead of a Wait, so
// the run's tail is min(primary, backup) rather than the straggler's
// lease TTL. Whichever copy lands first wins; the loser's duplicates are
// acknowledged idempotently, and a divergent duplicate is still the 409
// determinism tripwire.
//
// Every request is scoped to one coordinator instance by a per-run
// random token (Job.Run): lease requests, renewals and result lines
// that echo a different token are rejected with 410, so a worker that
// outlived a coordinator restart can never have stale payloads accepted
// under the new run's identically-numbered leases — it re-fetches the
// job and rejoins when the restarted coordinator serves the same run.
// Result lines are additionally scoped to the span their lease actually
// granted; a lease id is not a license to post arbitrary in-range
// shards.
//
// Every grant has one size, fixed when the coordinator is built
// (max(1, n/16) shards; only tests pin another, see Config), and a
// coordinator given a -journal directory appends every accepted shard
// result to an on-disk journal it replays after a restart, serving only
// the remainder. All of that moves scheduling and wall-clock only: shard
// values stay a pure function of (params, shard index), so record
// signatures are byte-identical with or without faults, restarts, or
// another grant size.
package remote

import (
	"encoding/json"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// WorkerArg is the hidden CLI argument (argv[1]) naming remote-worker
// mode:
//
//	<binary> -remote-worker -connect http://host:port
const WorkerArg = "-remote-worker"

// Job describes the one experiment a coordinator is serving; workers
// fetch it once, build per-process state, then start leasing.
type Job struct {
	Experiment string         `json:"experiment"`
	Params     results.Params `json:"params"`
	// Run is the coordinator's per-run random token. Every lease
	// request, renewal and result line must echo it; a mismatch is
	// rejected with 410. Lease ids alone (L1, L2, ...) are predictable
	// and collide across runs, so without the token a worker left
	// talking to a restarted coordinator on the same port could have
	// stale payloads accepted under the new run's identically-named
	// leases.
	Run string `json:"run"`
	// Shards is the total shard count ([0, Shards) across all leases).
	Shards int `json:"shards"`
	// LeaseMillis is the lease TTL workers must renew within.
	LeaseMillis int64 `json:"lease_ms"`
}

// LeaseRequest asks for the next chunk; Worker is a diagnostic identity
// (host-pid) the scheduler also keys idempotent re-polls, abandoned-grant
// release and the backup holder fence on — a scheduling input, never a
// correctness input. Run must echo the job's run token.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Run    string `json:"run"`
}

// Lease is the coordinator's answer to a lease request: a chunk grant,
// "nothing right now, poll again", or "the run is over, go home".
type Lease struct {
	// ID names the grant; result lines and renewals must echo it.
	ID string `json:"id,omitempty"`
	// Run echoes the coordinator's run token on every answer.
	Run string `json:"run,omitempty"`
	// Start and End bound the leased chunk: shards [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// ExpiresMillis is the TTL: unfinished shards return to the queue
	// this many milliseconds from the grant unless renewed.
	ExpiresMillis int64 `json:"expires_ms,omitempty"`
	// Backup marks a speculative backup grant: a second copy of another
	// worker's in-flight remainder, issued when the pending queue
	// drained. Purely informational for the worker — it runs the span
	// exactly like a primary grant; the coordinator's byte-equality
	// dedup decides which copy wins.
	Backup bool `json:"backup,omitempty"`
	// Wait means every shard is leased or done but the run isn't over:
	// poll again in PollMillis (a crashed peer's lease may expire).
	Wait bool `json:"wait,omitempty"`
	// PollMillis is the suggested retry interval when Wait is set.
	PollMillis int64 `json:"poll_ms,omitempty"`
	// Done means all shards are complete (or the run failed): no more
	// work will ever be granted and the worker should exit.
	Done bool `json:"done,omitempty"`
}

// RenewRequest extends a held lease's TTL; Run must echo the job's run
// token.
type RenewRequest struct {
	ID  string `json:"id"`
	Run string `json:"run"`
}

// Renewal acknowledges a renew with the fresh TTL.
type Renewal struct {
	ExpiresMillis int64 `json:"expires_ms"`
}

// ResultLine is one streamed shard result: the shared ShardLine wire
// shape (shard index + JSON value, or a shard failure) tagged with the
// lease it was produced under. The /results body is a stream of these,
// one JSON document per line.
type ResultLine struct {
	// Run must echo the job's run token; lines from another run — a
	// worker that outlived a coordinator restart — are rejected with 410
	// instead of being mistaken for this run's identically-named leases.
	Run string `json:"run"`
	// Lease echoes the grant the shard ran under. Results from expired
	// leases are still accepted when valid — re-issuing a lease makes the
	// work redundant, never wrong — but a line must name a lease this
	// coordinator actually issued, and its shard must fall inside that
	// lease's granted span.
	Lease string `json:"lease"`
	experiment.ShardLine
}

// ResultAck reports how many lines of a /results body were accepted;
// Error carries the rejection reason when the status is non-2xx.
type ResultAck struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
}

// Stats is the GET /stats snapshot: run progress, the live lease and
// queue shape, the speculative-backup counters and the /results
// traffic. Observability only — nothing here feeds back into results
// or scheduling.
type Stats struct {
	Run          string `json:"run"`
	Shards       int    `json:"shards"`
	Done         int    `json:"done"`
	Remaining    int    `json:"remaining"`
	PendingSpans int    `json:"pending_spans"`
	// Leases counts every outstanding grant; BackupLeases counts the
	// live speculative copies among them.
	Leases       int `json:"leases"`
	BackupLeases int `json:"backup_leases"`
	// BackupsIssued / BackupsWon / BackupsWasted: backup leases granted
	// over the whole run, shards whose first accepted result arrived
	// under a backup, and byte-equal duplicates a backup streamed after
	// its primary had already landed the shard.
	BackupsIssued int `json:"backups_issued"`
	BackupsWon    int `json:"backups_won"`
	BackupsWasted int `json:"backups_wasted"`
	// ResultPosts counts result bodies received — /results requests, or
	// a grant's lines from a pipe worker — and ResultLines the result
	// lines accepted from them. An HTTP worker posts at most two bodies
	// per chunk (its first result, then the rest), so a run's posts are
	// at most twice its grants; a pipe run counts one per grant.
	ResultPosts int `json:"result_posts"`
	ResultLines int `json:"result_lines"`
}

// mustJSON encodes a response document; protocol types marshal without
// error by construction.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
