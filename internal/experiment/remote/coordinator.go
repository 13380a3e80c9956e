package remote

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// DefaultLease is the lease TTL when none is configured: long enough
// that a healthy worker renewing at TTL/3 never loses a lease to
// scheduling noise, short enough that a crashed worker's chunk is back
// in the queue quickly.
const DefaultLease = 10 * time.Second

// Config tunes a Coordinator. Chunk, Lease and Now are test seams: the
// backends leave them zero, so every user run gets max(1, n/16) shards
// per grant and DefaultLease on the real clock. The coordinator's own
// tests and faulttest's harness set them to pin a grant size, shorten
// the TTL or drive a fake clock.
type Config struct {
	// Chunk pins the shards per grant. 0 means n/16 (at least 1): one
	// shard per grant for runs of fewer than 32 shards, such as Figure
	// 12's 18 long simulations, and a tail chunk small enough that a
	// backup copy of it duplicates little of a 3000-shard Figure 7 run.
	// Chunking only ever moves scheduling, never values.
	Chunk int
	// Lease is the lease TTL (0 = DefaultLease).
	Lease time.Duration
	// Journal is the path of the shard-result journal file ("" = no
	// journal): a run header plus every accepted result, appended as
	// JSONL. An existing compatible journal is replayed on startup so a
	// restarted coordinator serves only the remainder; an incompatible
	// one (different experiment, params signature or shard count) is a
	// hard startup error, never a silent partial reuse.
	Journal string
	// OnShardDone, when non-nil, fires once per newly completed shard
	// (the engine's progress hook), replayed journal shards included.
	// Duplicate results never re-fire it.
	OnShardDone func()
	// Now overrides the clock (nil = time.Now).
	Now func() time.Time
}

// span is a contiguous shard range [Start, End): the unit the
// coordinator grants to workers of either framing.
type span struct{ Start, End int }

// leaseState is one outstanding grant.
type leaseState struct {
	id      string
	seq     int // numeric id, in grant order: backup issue picks the lowest
	worker  string
	span    span
	expires time.Time // re-issue deadline: last grant, re-poll or renewal + TTL
	// started is set once a result arrived under this lease; an
	// unstarted grant is returned verbatim to a re-polling worker, so a
	// lease response lost in transit never orphans a chunk for a TTL.
	started bool
	// backup marks a speculative backup lease (a second copy of another
	// grant's undone remainder, issued to an idle worker when the
	// pending queue drained). The flag persists through promotion, for
	// the backups-won/wasted counters.
	backup bool
	// backupID, on a primary lease, names its live backup lease ("" =
	// none); at most one backup exists per span at a time. primaryID, on
	// a backup lease, names the primary it shadows. When either side of
	// the pair is dropped, the survivor covers the span alone: its
	// linkage is cleared and the dropped lease's remainder is NOT
	// requeued, so the pending queue never holds a third copy.
	backupID  string
	primaryID string
}

// Coordinator owns one experiment run's shard state machine: a queue of
// unleased spans, the outstanding leases, and the accepted results.
// Handler serves it to HTTP workers and drive (pipe.go) to -shard-worker
// processes; every mutation happens under one mutex, so concurrent
// workers see a consistent queue.
type Coordinator struct {
	spec   *experiment.Spec
	params results.Params
	n      int
	run    string // per-run random token every request must echo
	chunk  int    // shards per grant
	lease  time.Duration
	onDone func()
	now    func() time.Time

	// Everything below mu is mutable run state; the "guarded by mu"
	// comments are load-bearing — speclint's lockdiscipline analyzer
	// enforces that annotated fields are only touched under the mutex or
	// in functions marked //speclint:holds mu.
	mu       sync.Mutex
	pending  []span                 // unleased spans, FIFO; guarded by mu
	leases   map[string]*leaseState // outstanding grants; guarded by mu
	issued   map[string]span        // guarded by mu
	byWorker map[string]string      // worker name -> its latest lease id; guarded by mu
	nextID   int                    // guarded by mu
	// Backup-execution counters, for the end-of-run summary and /stats:
	// leases issued speculatively, shards whose first accepted result
	// arrived under a backup lease, and byte-equal duplicates a backup
	// streamed after the shard was already done.
	backupsIssued int // guarded by mu
	backupsWon    int // guarded by mu
	backupsWasted int // guarded by mu
	// /results traffic, for the end-of-run summary and /stats: request
	// bodies received and lines accepted from them.
	resultPosts int      // guarded by mu
	resultLines int      // guarded by mu
	done        []bool   // per-shard completion; guarded by mu
	values      []any    // decoded shard values, by index; guarded by mu
	raw         [][]byte // accepted result bytes, for the byte-equality assertion; guarded by mu
	remaining   int      // guarded by mu
	replayed    int      // shards restored from the journal at startup; guarded by mu
	journal     *journal // guarded by mu
	fatal       error    // guarded by mu
	// finished is closed exactly once (under mu) and waited on without
	// it; channel close/receive has its own happens-before edge, so the
	// field is deliberately not annotated.
	finished chan struct{}
}

// newRunToken mints the per-run random token that scopes every lease,
// renewal and result line to this coordinator instance: predictable
// lease ids (L1, L2, ...) collide across runs, so a worker left talking
// to a restarted coordinator on the same port must be told "different
// run" (410) instead of having its stale payloads accepted.
func newRunToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("remote: run token entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// NewCoordinator builds the coordinator for shards [0, n) of spec at
// params, replaying cfg.Journal first when one is configured. The
// caller serves Handler() where workers can reach it (or drives pipe
// workers), waits on Finished, and Closes the coordinator when done.
//
// Construction-time exclusivity: the coordinator is not published to any
// other goroutine until this returns, so guarded fields are written
// without the mutex here (hence the holds annotation).
//
//speclint:holds mu
func NewCoordinator(spec *experiment.Spec, p results.Params, n int, cfg Config) (*Coordinator, error) {
	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = max(1, n/16)
	}
	lease := cfg.Lease
	if lease <= 0 {
		lease = DefaultLease
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &Coordinator{
		spec: spec, params: p, n: n,
		run:   newRunToken(),
		chunk: chunk, lease: lease,
		onDone: cfg.OnShardDone, now: now,
		leases:    map[string]*leaseState{},
		issued:    map[string]span{},
		byWorker:  map[string]string{},
		done:      make([]bool, n),
		values:    make([]any, n),
		raw:       make([][]byte, n),
		remaining: n,
		finished:  make(chan struct{}),
	}
	if cfg.Journal != "" {
		j, replayed, err := openJournal(cfg.Journal, spec, p, n, c.run, c.replayEntry)
		if err != nil {
			return nil, err
		}
		c.journal = j
		c.replayed = replayed
	}
	// The queue holds only what is left to serve: the contiguous
	// not-done sub-spans of [0, n) — all of it on a fresh run, the
	// remainder after a journal replay.
	c.requeueUndone(span{Start: 0, End: n})
	if c.remaining == 0 {
		close(c.finished)
	}
	return c, nil
}

// replayEntry restores one journaled shard result during startup — the
// same acceptance a live result gets, minus re-journaling. Any defect
// (a failure line, an out-of-range index, undecodable bytes, two
// entries for one shard that disagree) makes the whole journal corrupt.
// Runs only inside NewCoordinator, before the coordinator is published
// to any other goroutine.
//
//speclint:holds mu
func (c *Coordinator) replayEntry(sl experiment.ShardLine) error {
	if sl.Err != "" {
		return fmt.Errorf("entry for shard %d records a failure; failures are never journaled", sl.Shard)
	}
	if sl.Shard < 0 || sl.Shard >= c.n {
		return fmt.Errorf("entry shard %d out of range [0,%d)", sl.Shard, c.n)
	}
	if c.done[sl.Shard] {
		if bytes.Equal(c.raw[sl.Shard], sl.Value) {
			return nil
		}
		return fmt.Errorf("shard %d journaled twice with different bytes", sl.Shard)
	}
	v, err := experiment.DecodeShard(c.spec, sl.Value)
	if err != nil {
		return fmt.Errorf("shard %d: undecodable journaled value: %w", sl.Shard, err)
	}
	c.values[sl.Shard] = v
	c.raw[sl.Shard] = append([]byte(nil), sl.Value...)
	c.done[sl.Shard] = true
	c.remaining--
	if c.onDone != nil {
		c.onDone()
	}
	return nil
}

// Replayed reports how many shards the startup journal replay restored.
func (c *Coordinator) Replayed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayed
}

// Close releases the coordinator's journal handle (a no-op without one).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.journal
	c.journal = nil
	return j.close()
}

// Finished is closed when every shard has a result or the run failed.
func (c *Coordinator) Finished() <-chan struct{} { return c.finished }

// Values returns the decoded shard values in index order once the run
// finished, or the fatal error that stopped it.
func (c *Coordinator) Values() ([]any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return nil, c.fatal
	}
	if c.remaining != 0 {
		return nil, fmt.Errorf("remote: run incomplete: %d of %d shards outstanding", c.remaining, c.n)
	}
	return c.values, nil
}

// fail records the first fatal error and releases waiters. Once the run
// is over — failed or already complete — further faults are no-ops: a
// straggler posting garbage after the last shard landed must not close
// finished twice or retroactively taint a completed run (its line is
// still rejected by the caller). Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) fail(err error) {
	if c.fatal != nil || c.remaining == 0 {
		return
	}
	c.fatal = err
	close(c.finished)
}

// sweepExpired reclaims every lease whose expires has passed — the one
// reclaim rule: a TTL since the lease's grant, re-poll or last renewal.
// The contiguous runs of not-yet-done shards inside its span go back in
// the queue for other workers — this is the crash tolerance and the
// work stealing in one move. An expired worker's byWorker entry goes
// with it, so a long-lived coordinator's map stays bounded by the live
// worker set. Expired leases are dropped in grant order, not
// map-iteration order: the drop order decides where each lease's undone
// remainder lands in the pending queue, and serving requeued spans
// oldest-grant-first keeps the schedule reproducible run to run
// (speclint's nondeterminism analyzer flags the unsorted map-range
// form). Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) sweepExpired() {
	now := c.now()
	var expired []*leaseState
	for _, l := range c.leases {
		if !now.Before(l.expires) {
			expired = append(expired, l)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].seq < expired[j].seq })
	for _, l := range expired {
		c.dropLease(l)
	}
}

// dropLease removes one lease and requeues its undone remainder — unless
// the lease's live backup (or, for a backup, its live primary) still
// covers the span, in which case the survivor is unlinked and owns the
// span alone: a backup's span bounds every shard of its primary that was
// undone at issue time, so whichever copy survives covers everything
// still outstanding, and requeueing would put a third copy of the work
// in play. When both sides of a pair expire in one sweep, the first one
// dropped sees its counterpart still live and skips the requeue; the
// second has been unlinked and requeues — exactly once either way.
// Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) dropLease(l *leaseState) {
	delete(c.leases, l.id)
	covered := false
	if l.backupID != "" {
		if b := c.leases[l.backupID]; b != nil {
			b.primaryID = ""
			covered = true
		}
		l.backupID = ""
	}
	if l.primaryID != "" {
		if p := c.leases[l.primaryID]; p != nil {
			p.backupID = ""
			covered = true
		}
		l.primaryID = ""
	}
	if !covered {
		c.requeueUndone(l.span)
	}
	if l.worker != "" && c.byWorker[l.worker] == l.id {
		delete(c.byWorker, l.worker)
	}
}

// requeueUndone pushes the contiguous not-done sub-spans of sp back onto
// the pending queue. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) requeueUndone(sp span) {
	start := -1
	for i := sp.Start; i <= sp.End; i++ {
		if i < sp.End && !c.done[i] {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			c.pending = append(c.pending, span{Start: start, End: i})
			start = -1
		}
	}
}

// undoneBounds is the tightest span covering sp's not-done shards;
// ok is false when every shard of sp is complete. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) undoneBounds(sp span) (span, bool) {
	lo, hi := -1, -1
	for i := sp.Start; i < sp.End; i++ {
		if !c.done[i] {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		return span{}, false
	}
	return span{Start: lo, End: hi + 1}, true
}

// newLease mints and registers one grant. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) newLease(worker string, sp span, now time.Time) *leaseState {
	c.nextID++
	l := &leaseState{
		id:  fmt.Sprintf("L%d", c.nextID),
		seq: c.nextID, worker: worker, span: sp,
		expires: now.Add(c.lease),
	}
	c.leases[l.id] = l
	c.issued[l.id] = sp
	if worker != "" {
		c.byWorker[worker] = l.id
	}
	return l
}

// grantBackup is speculative backup execution, the tail-latency half of
// the MapReduce playbook the byte-equality dedup already paid for: when
// the pending queue is empty but grants are still in flight, an idle
// worker is handed a second copy of the oldest in-flight grant's undone
// remainder (the lowest seq: grants are numbered in grant order) instead
// of a Wait. Whichever copy lands first wins through the normal dedup (a
// mismatch is still the 409 determinism tripwire); the loser's
// duplicates are acknowledged and counted as wasted. Fences:
// never the span's current holder, at most one live backup per span
// (neither a backed-up primary nor a live backup is a candidate), and an
// anonymous requester gets nothing (the holder fence needs an identity).
// Returns nil when no grant qualifies. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) grantBackup(worker string, now time.Time) *leaseState {
	if worker == "" {
		return nil
	}
	var oldest *leaseState
	var rest span
	for _, l := range c.leases {
		if l.worker == worker || l.backupID != "" || l.primaryID != "" {
			continue
		}
		sp, ok := c.undoneBounds(l.span)
		if !ok {
			continue // fully done, just not yet expired
		}
		if oldest == nil || l.seq < oldest.seq {
			oldest, rest = l, sp
		}
	}
	if oldest == nil {
		return nil
	}
	b := c.newLease(worker, rest, now)
	b.backup = true
	b.primaryID = oldest.id
	oldest.backupID = b.id
	c.backupsIssued++
	return b
}

// Stats snapshots the coordinator's scheduling state: run progress, the
// live lease and queue shape, the speculative-backup counters and the
// /results traffic.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Run: c.run, Shards: c.n,
		Done: c.n - c.remaining, Remaining: c.remaining,
		PendingSpans: len(c.pending), Leases: len(c.leases),
		BackupsIssued: c.backupsIssued, BackupsWon: c.backupsWon,
		BackupsWasted: c.backupsWasted,
		ResultPosts:   c.resultPosts,
		ResultLines:   c.resultLines,
	}
	for _, l := range c.leases {
		if l.backup {
			st.BackupLeases++
		}
	}
	return st
}

// Handler returns the coordinator's HTTP interface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/job", c.handleJob)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/renew", c.handleRenew)
	mux.HandleFunc("/results", c.handleResults)
	mux.HandleFunc("/stats", c.handleStats)
	return mux
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(mustJSON(v))
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Job{
		Experiment: c.spec.Name, Params: c.params, Run: c.run,
		Shards: c.n, LeaseMillis: c.lease.Milliseconds(),
	})
}

// pollInterval suggests how often a waiting worker should re-poll:
// fast enough to pick up an expired lease promptly, slow enough not to
// hammer the coordinator.
func (c *Coordinator) pollInterval() time.Duration {
	p := c.lease / 10
	if p < 25*time.Millisecond {
		p = 25 * time.Millisecond
	}
	if p > time.Second {
		p = time.Second
	}
	return p
}

// handleLease, handleRenew and handleResults decode HTTP requests for
// grant, renew and accept, which drive (pipe.go) calls directly.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if c.decodeRequest(w, r, "lease request", &req, &req.Run) {
		writeJSON(w, http.StatusOK, c.grant(req.Worker))
	}
}

// decodeRequest decodes a POST's JSON body into req and checks the run
// token it carries in *run, answering 405, 400 or 410 itself on failure.
func (c *Coordinator) decodeRequest(w http.ResponseWriter, r *http.Request, what string, req any, run *string) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		http.Error(w, "bad "+what+": "+err.Error(), http.StatusBadRequest)
		return false
	}
	if *run != c.run {
		http.Error(w, fmt.Sprintf("%s names run %q; this coordinator serves run %q", what, *run, c.run), http.StatusGone)
		return false
	}
	return true
}

// grant answers one lease request from worker, a diagnostic identity
// ("" = anonymous): Done once the run is over; the worker's own unstarted
// grant again; otherwise the next span off the queue at the grant size,
// a backup copy of the oldest in-flight remainder when the queue is
// empty, or Wait.
func (c *Coordinator) grant(worker string) Lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepExpired()
	if c.fatal != nil || c.remaining == 0 {
		return Lease{Done: true, Run: c.run}
	}
	if worker != "" {
		if id, ok := c.byWorker[worker]; ok {
			if l := c.leases[id]; l != nil {
				if !l.started {
					// Idempotent re-poll: a worker holding an unexpired
					// grant it never started (no results arrived) gets the
					// same grant back — the retry after a lease response
					// lost in transit, not a request for more.
					l.expires = now.Add(c.lease)
					return c.offer(l)
				}
				// Abandoned-grant release: a worker never polls for a new
				// lease while still serving a chunk, so a re-poll from the
				// holder of a started, unexpired grant means it finished or
				// abandoned that chunk and moved on. Releasing the undone
				// remainder now, before granting fresh work, beats leaving
				// those shards unserveable until the TTL cliff.
				c.dropLease(l)
			}
		}
	}
	if len(c.pending) == 0 {
		if b := c.grantBackup(worker, now); b != nil {
			return c.offer(b)
		}
		return Lease{Wait: true, Run: c.run, PollMillis: c.pollInterval().Milliseconds()}
	}
	// Carve the grant off the head span at the grant size; the
	// remainder goes back to the front so the queue stays FIFO.
	sp := c.pending[0]
	c.pending = c.pending[1:]
	if sp.End-sp.Start > c.chunk {
		c.pending = append([]span{{Start: sp.Start + c.chunk, End: sp.End}}, c.pending...)
		sp.End = sp.Start + c.chunk
	}
	return c.offer(c.newLease(worker, sp, now))
}

// offer renders a grant as the Lease document its worker receives.
func (c *Coordinator) offer(l *leaseState) Lease {
	return Lease{
		ID: l.id, Run: c.run, Start: l.span.Start, End: l.span.End,
		ExpiresMillis: c.lease.Milliseconds(), Backup: l.backup,
	}
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	switch {
	case !c.decodeRequest(w, r, "renewal", &req, &req.Run):
	case !c.renew(req.ID):
		http.Error(w, "lease expired or unknown", http.StatusGone)
	default:
		writeJSON(w, http.StatusOK, Renewal{ExpiresMillis: c.lease.Milliseconds()})
	}
}

// renew extends lease id's TTL, reporting false when the lease expired
// (possibly re-issued already) or was never issued: its holder must
// abandon the chunk. Results it already streamed remain accepted.
func (c *Coordinator) renew(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepExpired()
	l, ok := c.leases[id]
	now := c.now()
	if !ok || !now.Before(l.expires) {
		if ok {
			c.dropLease(l)
		}
		return false
	}
	l.expires = now.Add(c.lease)
	return true
}

// release drops lease id at once and requeues its undone remainder, for
// a pipe worker that died or broke the protocol mid-grant.
func (c *Coordinator) release(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.leases[id]; l != nil {
		c.dropLease(l)
	}
}

// handleResults ingests a stream of ResultLine documents, one per line,
// applied in order up to the first rejection; the ack counts the lines
// applied. The coordinator trusts no worker: see accept.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// A small initial buffer: the Scanner grows it only for a line that
	// needs more, up to the 64 MiB line cap.
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 1<<26)
	accepted, status := 0, http.StatusOK
	var err error
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rl ResultLine
		if err = json.Unmarshal(line, &rl); err != nil {
			status, err = http.StatusBadRequest, fmt.Errorf("malformed result line: %w", err)
			break
		}
		if rl.Run != c.run {
			status, err = http.StatusGone, fmt.Errorf("result names run %q; this coordinator serves run %q", rl.Run, c.run)
			break
		}
		if status, err = c.accept(rl.Lease, rl.ShardLine); err != nil {
			break
		}
		accepted++
	}
	if err == nil {
		if err = sc.Err(); err != nil {
			status = http.StatusBadRequest
		}
	}
	c.finishBody(accepted)
	ack := ResultAck{Accepted: accepted}
	if err != nil {
		ack.Error = err.Error()
	}
	writeJSON(w, status, ack)
}

// finishBody closes one result body — a /results request, or one line
// from a pipe worker — counting it and the lines accepted from it.
func (c *Coordinator) finishBody(accepted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resultPosts++
	c.resultLines += accepted
}

// accept validates and applies one shard result produced under lease,
// returning the HTTP status to reject it with when invalid. A lease this
// coordinator never issued, a shard out of range or outside the lease's
// granted span, or a payload that does not decode as the spec's shard
// type leaves shard state alone (the shard stays pending or leased and
// will be served again). A duplicate of an already-done shard must be
// byte-identical to the accepted result: equal bytes are acknowledged
// idempotently, unequal bytes are a determinism-contract violation that
// fails the whole run (409). An accepted result, new or a byte-equal
// duplicate, marks its lease started.
func (c *Coordinator) accept(lease string, sl experiment.ShardLine) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp, issued := c.issued[lease]
	if !issued {
		return http.StatusGone, fmt.Errorf("result names lease %q this coordinator never issued", lease)
	}
	if sl.Shard < 0 || sl.Shard >= c.n {
		return http.StatusBadRequest, fmt.Errorf("shard %d out of range [0,%d)", sl.Shard, c.n)
	}
	if sl.Shard < sp.Start || sl.Shard >= sp.End {
		return http.StatusBadRequest, fmt.Errorf("shard %d outside lease %s's span [%d,%d)", sl.Shard, lease, sp.Start, sp.End)
	}
	// Only shard results the coordinator actually accepts mark the grant
	// started: rejected garbage must not defeat the unstarted re-poll
	// idempotency.
	l := c.leases[lease]
	if c.done[sl.Shard] {
		switch {
		case sl.Err != "":
			// A straggler from a re-issued lease reporting a failure for
			// a shard someone else already completed: moot by then — the
			// accepted bytes satisfied the determinism contract, so the
			// stale error must not poison the run.
			return http.StatusOK, nil
		case bytes.Equal(c.raw[sl.Shard], sl.Value):
			// Idempotent duplicate from a re-issued or backup lease; a
			// backup's duplicate means its primary got there first —
			// wasted speculation, worth counting.
			if l != nil {
				l.started = true
				if l.backup {
					c.backupsWasted++
				}
			}
			return http.StatusOK, nil
		default:
			err := fmt.Errorf("remote: shard %d: duplicate result differs from accepted bytes — determinism contract violated", sl.Shard)
			c.fail(err)
			return http.StatusConflict, err
		}
	}
	if sl.Err != "" {
		// A shard that genuinely fails would fail identically anywhere —
		// re-running it elsewhere cannot help, so the run fails.
		c.fail(fmt.Errorf("remote: shard %d: %s", sl.Shard, sl.Err))
		return http.StatusOK, nil
	}
	if len(sl.Value) == 0 {
		return http.StatusBadRequest, fmt.Errorf("shard %d: empty result value", sl.Shard)
	}
	v, err := experiment.DecodeShard(c.spec, sl.Value)
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("shard %d: corrupt payload: %w", sl.Shard, err)
	}
	if c.journal != nil {
		if err := c.journal.append(sl); err != nil {
			// A journal that cannot record what it accepted is a broken
			// restart contract; failing loudly beats resuming wrong.
			c.fail(err)
			return http.StatusInternalServerError, err
		}
	}
	c.values[sl.Shard] = v
	c.raw[sl.Shard] = append([]byte(nil), sl.Value...)
	c.done[sl.Shard] = true
	c.remaining--
	if l != nil {
		l.started = true
		if l.backup {
			c.backupsWon++ // the speculative copy landed first
		}
	}
	if c.onDone != nil {
		c.onDone()
	}
	if c.remaining == 0 && c.fatal == nil {
		close(c.finished)
	}
	return http.StatusOK, nil
}
