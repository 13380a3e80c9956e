package remote

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
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

// Config tunes a Coordinator.
type Config struct {
	// Chunk pins the shards-per-lease granularity. 0 means adaptive:
	// grants start at n/32 (clamped to at least 1) and then track the
	// observed per-shard completion cost, aiming for one chunk per
	// quarter lease TTL within [1, n/8] — so cheap shards coalesce into
	// bigger grants and expensive ones (AD-ordering cells calibrate
	// twice) stop mispricing a fixed split. Chunking only ever moves
	// scheduling, never values.
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
	// Now overrides the clock, for tests (nil = time.Now).
	Now func() time.Time
}

// leaseState is one outstanding grant.
type leaseState struct {
	id      string
	seq     int // numeric id, for deterministic oldest-grant tie-breaks
	worker  string
	span    experiment.Span
	granted time.Time // grant time; backup issue picks the oldest grant
	expires time.Time // re-issue deadline: last grant, re-poll or renewal + TTL
	// lastProgress is the previous accepted result's arrival, for the
	// per-shard cost estimate. Anchored at the lease's first accepted
	// result — not the grant — so a worker that fetched a grant and then
	// idled (wait/poll loop, job fetch) doesn't fold the wait into the
	// cost EWMA and collapse the adaptive chunk size.
	lastProgress time.Time
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
// unleased spans, the outstanding leases, and the accepted results. It
// is an http.Handler serving the wire protocol; every mutation happens
// under one mutex, so concurrent workers see a consistent queue.
type Coordinator struct {
	spec   *experiment.Spec
	params results.Params
	n      int
	run    string // per-run random token every request must echo
	chunk  int    // pinned grant size, or the adaptive starting size
	fixed  bool   // Config.Chunk pinned the grant size
	maxCh  int    // adaptive grant-size ceiling
	lease  time.Duration
	onDone func()
	now    func() time.Time

	// Everything below mu is mutable run state; the "guarded by mu"
	// comments are load-bearing — speclint's lockdiscipline analyzer
	// enforces that annotated fields are only touched under the mutex or
	// in functions marked //speclint:holds mu.
	mu       sync.Mutex
	pending  []experiment.Span          // unleased spans, FIFO; guarded by mu
	leases   map[string]*leaseState     // outstanding grants; guarded by mu
	issued   map[string]experiment.Span // guarded by mu
	byWorker map[string]string          // worker name -> its latest lease id; guarded by mu
	costEWMA time.Duration              // observed per-shard completion cost; guarded by mu
	nextID   int                        // guarded by mu
	// Backup-execution counters, for the end-of-run summary and /stats:
	// leases issued speculatively, shards whose first accepted result
	// arrived under a backup lease, and byte-equal duplicates a backup
	// streamed after the shard was already done.
	backupsIssued int // guarded by mu
	backupsWon    int // guarded by mu
	backupsWasted int // guarded by mu
	// /results traffic, for the end-of-run summary and /stats: request
	// bodies received and lines accepted from them. Their ratio is how
	// well workers coalesce results.
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
// caller serves Handler() somewhere workers can reach, waits on
// Finished, and Closes the coordinator when done with it.
//
// Construction-time exclusivity: the coordinator is not published to any
// other goroutine until this returns, so guarded fields are written
// without the mutex here (hence the holds annotation).
//
//speclint:holds mu
func NewCoordinator(spec *experiment.Spec, p results.Params, n int, cfg Config) (*Coordinator, error) {
	chunk := cfg.Chunk
	fixed := chunk > 0
	if !fixed {
		chunk = n / 32
		if chunk < 1 {
			chunk = 1
		}
	}
	maxCh := n / 8
	if maxCh < chunk {
		maxCh = chunk
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
		chunk: chunk, fixed: fixed, maxCh: maxCh, lease: lease,
		onDone: cfg.OnShardDone, now: now,
		leases:    map[string]*leaseState{},
		issued:    map[string]experiment.Span{},
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
	c.requeueUndone(experiment.Span{Start: 0, End: n})
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
func (c *Coordinator) requeueUndone(sp experiment.Span) {
	start := -1
	for i := sp.Start; i <= sp.End; i++ {
		if i < sp.End && !c.done[i] {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			c.pending = append(c.pending, experiment.Span{Start: start, End: i})
			start = -1
		}
	}
}

// targetChunk is the shards-per-grant size: the configured size when
// pinned, otherwise adapted so one chunk costs about a quarter of the
// lease TTL at the observed per-shard completion cost. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) targetChunk() int {
	if c.fixed || c.costEWMA <= 0 {
		return c.chunk
	}
	k := int((c.lease / 4) / c.costEWMA)
	if k < 1 {
		k = 1
	}
	if k > c.maxCh {
		k = c.maxCh
	}
	return k
}

// observeProgress folds the k shards a lease completed in one /results
// body into the cost EWMA, as one observation: the interval since the
// lease's previous body, dt, gives a per-shard cost of dt/k. The
// observation weighs as k single-line bodies dt/k apart would — k EWMA
// steps of 1/4 — so a coalesced body's lines, which arrive together,
// neither read as k-1 free shards nor count as one. Callers pass only
// body-to-body intervals — the body that carries a lease's first
// accepted result merely anchors lastProgress (see leaseState) — and a
// result from an already-expired lease carries no usable timing.
// Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) observeProgress(l *leaseState, k int, now time.Time) {
	cost := now.Sub(l.lastProgress) / time.Duration(k)
	l.lastProgress = now
	if cost < time.Microsecond {
		cost = time.Microsecond // instantaneous arrivals still mean "cheap"
	}
	if c.costEWMA <= 0 {
		c.costEWMA = cost
	} else {
		keep := math.Pow(0.75, float64(k)) // old estimate's weight after k steps
		c.costEWMA = cost + time.Duration(keep*float64(c.costEWMA-cost))
	}
}

// undoneBounds is the tightest span covering sp's not-done shards;
// ok is false when every shard of sp is complete. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) undoneBounds(sp experiment.Span) (experiment.Span, bool) {
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
		return experiment.Span{}, false
	}
	return experiment.Span{Start: lo, End: hi + 1}, true
}

// newLease mints and registers one grant. Callers hold mu.
//
//speclint:holds mu
func (c *Coordinator) newLease(worker string, sp experiment.Span, now time.Time) *leaseState {
	c.nextID++
	l := &leaseState{
		id:  fmt.Sprintf("L%d", c.nextID),
		seq: c.nextID, worker: worker, span: sp,
		granted: now, expires: now.Add(c.lease), lastProgress: now,
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
// remainder instead of a Wait. Whichever copy lands first wins through
// the normal dedup (a mismatch is still the 409 determinism tripwire);
// the loser's duplicates are acknowledged and counted as wasted. Fences:
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
	var span experiment.Span
	for _, l := range c.leases {
		if l.worker == worker || l.backupID != "" || l.primaryID != "" {
			continue
		}
		sp, ok := c.undoneBounds(l.span)
		if !ok {
			continue // fully done, just not yet expired
		}
		if oldest == nil || l.granted.Before(oldest.granted) ||
			(l.granted.Equal(oldest.granted) && l.seq < oldest.seq) {
			oldest, span = l, sp
		}
	}
	if oldest == nil {
		return nil
	}
	b := c.newLease(worker, span, now)
	b.backup = true
	b.primaryID = oldest.id
	oldest.backupID = b.id
	c.backupsIssued++
	return b
}

// Stats snapshots the coordinator's scheduling state: run progress, the
// live lease and queue shape, the speculative-backup counters, the
// /results traffic and the cost EWMA.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Run: c.run, Shards: c.n,
		Done: c.n - c.remaining, Remaining: c.remaining,
		PendingSpans: len(c.pending), Leases: len(c.leases),
		BackupsIssued: c.backupsIssued, BackupsWon: c.backupsWon,
		BackupsWasted:  c.backupsWasted,
		ResultPosts:    c.resultPosts,
		ResultLines:    c.resultLines,
		CostEWMAMicros: c.costEWMA.Microseconds(),
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

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad lease request: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Run != c.run {
		http.Error(w, fmt.Sprintf("lease request names run %q; this coordinator serves run %q", req.Run, c.run), http.StatusGone)
		return
	}
	now := c.now()
	c.sweepExpired()
	if c.fatal != nil || c.remaining == 0 {
		writeJSON(w, http.StatusOK, Lease{Done: true, Run: c.run})
		return
	}
	if req.Worker != "" {
		if id, ok := c.byWorker[req.Worker]; ok {
			if l := c.leases[id]; l != nil {
				if !l.started {
					// Idempotent re-poll: a worker holding an unexpired
					// grant it never started (no results arrived) gets the
					// same grant back — the retry after a lease response
					// lost in transit, not a request for more.
					l.expires = now.Add(c.lease)
					writeJSON(w, http.StatusOK, Lease{
						ID: l.id, Run: c.run, Start: l.span.Start, End: l.span.End,
						ExpiresMillis: c.lease.Milliseconds(), Backup: l.backup,
					})
					return
				}
				// Abandoned-grant release: a worker never polls for a new
				// lease while still serving a chunk, so a re-poll from the
				// holder of a started, unexpired grant means it abandoned
				// that chunk (the transport-error fallback) and moved on.
				// The coordinator knows — releasing the undone remainder
				// now, before granting fresh work, beats leaving those
				// shards unserveable until the TTL cliff.
				c.dropLease(l)
			}
		}
	}
	if len(c.pending) == 0 {
		if b := c.grantBackup(req.Worker, now); b != nil {
			writeJSON(w, http.StatusOK, Lease{
				ID: b.id, Run: c.run, Start: b.span.Start, End: b.span.End,
				ExpiresMillis: c.lease.Milliseconds(), Backup: true,
			})
			return
		}
		writeJSON(w, http.StatusOK, Lease{Wait: true, Run: c.run, PollMillis: c.pollInterval().Milliseconds()})
		return
	}
	// Carve the grant off the head span at the target size; the
	// remainder goes back to the front so the queue stays FIFO.
	sp := c.pending[0]
	c.pending = c.pending[1:]
	if k := c.targetChunk(); sp.End-sp.Start > k {
		c.pending = append([]experiment.Span{{Start: sp.Start + k, End: sp.End}}, c.pending...)
		sp.End = sp.Start + k
	}
	l := c.newLease(req.Worker, sp, now)
	writeJSON(w, http.StatusOK, Lease{
		ID: l.id, Run: c.run, Start: sp.Start, End: sp.End,
		ExpiresMillis: c.lease.Milliseconds(),
	})
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad renew request: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Run != c.run {
		http.Error(w, fmt.Sprintf("renewal names run %q; this coordinator serves run %q", req.Run, c.run), http.StatusGone)
		return
	}
	c.sweepExpired()
	l, ok := c.leases[req.ID]
	now := c.now()
	if !ok || !now.Before(l.expires) {
		// Expired (possibly re-issued already): the worker must abandon
		// the chunk. Results it already streamed remain accepted.
		if ok {
			c.dropLease(l)
		}
		http.Error(w, "lease expired or unknown", http.StatusGone)
		return
	}
	l.expires = now.Add(c.lease)
	writeJSON(w, http.StatusOK, Renewal{ExpiresMillis: c.lease.Milliseconds()})
}

// handleResults ingests a stream of ResultLine documents, one per line.
// Lines are validated hard — the coordinator trusts no worker: malformed
// JSON, wrong run tokens, never-issued lease ids, out-of-range or
// out-of-span shard indexes and payloads that don't decode as the spec's
// shard type are rejected with a 4xx without corrupting shard state (the
// shard stays pending or leased and will be served again). A duplicate
// of an already-done shard must be byte-identical to the accepted
// result: equal bytes are acknowledged idempotently, unequal bytes are a
// determinism-contract violation that fails the whole run (409). Lines
// are applied in order up to the first rejection; the ack counts the
// lines applied.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// A small initial buffer: the Scanner grows it only for a line that
	// needs more, up to the 64 MiB line cap.
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 1<<26)
	var progress []bodyProgress
	accepted, status := 0, http.StatusOK
	var err error
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if status, err = c.acceptResult(line, &progress); err != nil {
			break
		}
		accepted++
	}
	if err == nil {
		if err = sc.Err(); err != nil {
			status = http.StatusBadRequest
		}
	}
	c.finishBody(progress, accepted)
	ack := ResultAck{Accepted: accepted}
	if err != nil {
		ack.Error = err.Error()
	}
	writeJSON(w, status, ack)
}

// bodyProgress is one lease's share of a /results body: the shard
// results the body carried under it (new completions and byte-equal
// duplicates), folded into a single progress observation once the body
// is read.
type bodyProgress struct {
	lease  *leaseState
	shards int
	// anchor is set when the lease's first accepted result arrived in
	// this body: the body only anchors the lease's progress clock.
	anchor bool
}

// progressFor returns l's entry in a body's progress list, adding it on
// first use. A worker's body names one lease, so the list is short.
func progressFor(progress *[]bodyProgress, l *leaseState) *bodyProgress {
	for i := range *progress {
		if (*progress)[i].lease == l {
			return &(*progress)[i]
		}
	}
	*progress = append(*progress, bodyProgress{lease: l})
	return &(*progress)[len(*progress)-1]
}

// finishBody closes one /results body: it counts the post and the lines
// accepted from it, and folds each lease's completions in the body into
// one progress observation. A lease dropped while the body was read (a
// sweep or an abandoned-grant release) is skipped: like an expired
// lease's, its timing is no cost sample.
func (c *Coordinator) finishBody(progress []bodyProgress, accepted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resultPosts++
	c.resultLines += accepted
	now := c.now()
	for _, bp := range progress {
		if !bp.anchor && bp.shards > 0 && c.leases[bp.lease.id] == bp.lease {
			c.observeProgress(bp.lease, bp.shards, now)
		}
	}
}

// acceptResult validates and applies one result line, returning the HTTP
// status to reject it with when invalid. A shard result it accepts under
// a live lease is tallied in progress for the body's progress
// observation.
func (c *Coordinator) acceptResult(line []byte, progress *[]bodyProgress) (int, error) {
	var rl ResultLine
	if err := json.Unmarshal(line, &rl); err != nil {
		return http.StatusBadRequest, fmt.Errorf("malformed result line: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rl.Run != c.run {
		return http.StatusGone, fmt.Errorf("result names run %q; this coordinator serves run %q", rl.Run, c.run)
	}
	span, issued := c.issued[rl.Lease]
	if !issued {
		return http.StatusGone, fmt.Errorf("result names lease %q this coordinator never issued", rl.Lease)
	}
	if rl.Shard < 0 || rl.Shard >= c.n {
		return http.StatusBadRequest, fmt.Errorf("shard %d out of range [0,%d)", rl.Shard, c.n)
	}
	if rl.Shard < span.Start || rl.Shard >= span.End {
		return http.StatusBadRequest, fmt.Errorf("shard %d outside lease %s's span [%d,%d)", rl.Shard, rl.Lease, span.Start, span.End)
	}
	now := c.now()
	// Only shard results the coordinator actually accepts mark the grant
	// started: rejected garbage must not defeat the unstarted re-poll
	// idempotency. The started transition also anchors the per-shard
	// cost clock: the gap between the grant and the first accepted
	// result is fetch and idle time, not shard cost, and the rest of the
	// anchoring body arrived with it, so it is not observed either. ran
	// counts a shard result — new or a byte-equal duplicate, work the
	// worker did either way — toward the body's progress observation; a
	// duplicate-only stretch (a primary and its backup racing) would
	// otherwise read as a stalled worker.
	l := c.leases[rl.Lease]
	ran := func() {
		if l == nil {
			return
		}
		bp := progressFor(progress, l)
		bp.shards++
		if !l.started {
			l.started = true
			l.lastProgress = now
			bp.anchor = true
		}
	}
	if c.done[rl.Shard] {
		switch {
		case rl.Err != "":
			// A straggler from a re-issued lease reporting a failure for
			// a shard someone else already completed: moot by then — the
			// accepted bytes satisfied the determinism contract, so the
			// stale error must not poison the run.
			return http.StatusOK, nil
		case bytes.Equal(c.raw[rl.Shard], rl.Value):
			// Idempotent duplicate from a re-issued or backup lease; a
			// backup's duplicate means its primary got there first —
			// wasted speculation, worth counting.
			if l != nil && l.backup {
				c.backupsWasted++
			}
			ran()
			return http.StatusOK, nil
		default:
			err := fmt.Errorf("remote: shard %d: duplicate result differs from accepted bytes — determinism contract violated", rl.Shard)
			c.fail(err)
			return http.StatusConflict, err
		}
	}
	if rl.Err != "" {
		// A shard that genuinely fails would fail identically anywhere —
		// re-running it elsewhere cannot help, so the run fails.
		c.fail(fmt.Errorf("remote: shard %d: %s", rl.Shard, rl.Err))
		return http.StatusOK, nil
	}
	if len(rl.Value) == 0 {
		return http.StatusBadRequest, fmt.Errorf("shard %d: empty result value", rl.Shard)
	}
	v, err := experiment.DecodeShard(c.spec, rl.Value)
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("shard %d: corrupt payload: %w", rl.Shard, err)
	}
	if c.journal != nil {
		if err := c.journal.append(rl.ShardLine); err != nil {
			// A journal that cannot record what it accepted is a broken
			// restart contract; failing loudly beats resuming wrong.
			c.fail(err)
			return http.StatusInternalServerError, err
		}
	}
	ran()
	c.values[rl.Shard] = v
	c.raw[rl.Shard] = append([]byte(nil), rl.Value...)
	c.done[rl.Shard] = true
	c.remaining--
	if l != nil && l.backup {
		c.backupsWon++ // the speculative copy landed first
	}
	if c.onDone != nil {
		c.onDone()
	}
	if c.remaining == 0 && c.fatal == nil {
		close(c.finished)
	}
	return http.StatusOK, nil
}
