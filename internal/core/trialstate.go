package core

import (
	"sync"

	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
	"specinterference/internal/uarch"
)

// trialShape is the part of a TrialSpec that fixes the machine
// configuration: two specs with the same shape differ only in seed,
// secret, policy and programs, so one reset machine can serve both.
// Tweaked specs (spec.Tweak != nil) have no comparable shape and never
// reuse a machine.
type trialShape struct {
	jitter       int
	replNoisePct int
}

// victimKey identifies one assembled victim program. The layout is part
// of the key because config tweaks can move the eviction-set-derived
// addresses; everything in it is a comparable value type.
type victimKey struct {
	gadget   Gadget
	ordering Ordering
	layout   Layout
	params   VictimParams
}

// victimMemo is one entry of TrialState's victim memo, the only victim
// cache. Batch harnesses run thousands of trials over a handful of
// distinct keys, and an assembled program is immutable once built, so
// each state builds a victim once per key. The linear scan is
// allocation-free on the steady-state path.
type victimMemo struct {
	key victimKey
	v   *Victim
}

// TrialState is a reusable trial context for batch harnesses. Instead of
// building a fresh two-core system (and a fresh flat memory, hierarchy,
// predictor, ...) per trial, it resets one machine in place between trials
// — bit-identical to a fresh build, pinned by the equivalence tests — and
// reuses every result buffer. The steady-state trial loop on a warmed
// TrialState performs zero heap allocations.
//
// A TrialState is NOT safe for concurrent use; use AcquireTrialState /
// ReleaseTrialState to get a per-goroutine instance from the shared pool.
type TrialState struct {
	hasSys bool
	shape  trialShape
	sys    *uarch.System
	layout Layout

	sink recordSink
	res  TrialResult

	victims []victimMemo

	// PoC receiver memo: the QLRU receiver and its prime/probe programs
	// depend only on the layout, geometry and PoC kind — all fixed for a
	// given kind on untweaked machines — so they are built once per kind.
	recvOK   bool
	recvKind PoCKind
	recv     *QLRUReceiver
	prime    *isa.Program
	probe    *isa.Program

	// Flush+Reload program memo (I-Cache PoC), keyed by target line.
	reloadOK   bool
	reloadLine int64
	reload     *isa.Program
}

// NewTrialState returns an empty trial context. Most callers want
// AcquireTrialState instead.
func NewTrialState() *TrialState { return &TrialState{} }

// trialStatePool recycles TrialStates across shards: batch harnesses
// acquire one per shard, and the pool hands each worker goroutine back a
// warmed machine so the per-trial system construction cost is paid only
// once per worker.
var trialStatePool = sync.Pool{New: func() any { return NewTrialState() }}

// AcquireTrialState returns a pooled trial context, possibly warmed by a
// previous shard.
func AcquireTrialState() *TrialState { return trialStatePool.Get().(*TrialState) }

// ReleaseTrialState returns ts to the pool. Results returned by ts.Run
// alias the state's buffers and must not be used after release.
func ReleaseTrialState(ts *TrialState) { trialStatePool.Put(ts) }

// attackSystem builds or resets the state's machine for spec, primes and
// trains it, and returns it with its layout and victim: NewAttackSystem
// and every trial run through it. When the spec's shape matches the kept
// machine, the machine is reset in place (no allocation) instead of
// rebuilt. A tweaked spec always gets a fresh machine that is never kept,
// because a config mutation cannot be keyed; its victim still goes into
// the memo, keyed by the layout its tweaked cache config derives.
func (ts *TrialState) attackSystem(spec TrialSpec) (*uarch.System, Layout, *Victim, error) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1 // AttackConfig's default hierarchy seed
	}
	shape := trialShape{jitter: spec.Jitter, replNoisePct: spec.ReplNoisePct}
	sys, l := ts.sys, ts.layout
	if spec.Tweak == nil && ts.hasSys && ts.shape == shape {
		sys.Reset(seed)
	} else {
		cfg := AttackConfig()
		cfg.Cache.MemJitter = spec.Jitter
		cfg.Cache.LLCReplacementNoisePct = spec.ReplNoisePct
		cfg.Cache.Seed = seed
		if spec.Tweak != nil {
			spec.Tweak(&cfg)
		}
		var err error
		if sys, err = uarch.NewSystem(cfg, mem.New()); err != nil {
			return nil, Layout{}, nil, err
		}
		l = DefaultLayout(cfg.Cache)
		if spec.Tweak == nil {
			ts.sys, ts.shape, ts.hasSys, ts.layout = sys, shape, true, l
		}
	}
	v, err := ts.victim(victimKey{gadget: spec.Gadget, ordering: spec.Ordering, layout: l, params: spec.params()})
	if err != nil {
		return nil, Layout{}, nil, err
	}
	if err := prepareTrial(sys, v, spec); err != nil {
		return nil, Layout{}, nil, err
	}
	return sys, l, v, nil
}

// victim returns the memoized victim program for key, building it on the
// state's first use of the key.
func (ts *TrialState) victim(key victimKey) (*Victim, error) {
	for i := range ts.victims {
		if ts.victims[i].key == key {
			return ts.victims[i].v, nil
		}
	}
	v, err := BuildVictim(key.gadget, key.ordering, key.layout, key.params)
	if err != nil {
		return nil, err
	}
	ts.victims = append(ts.victims, victimMemo{key: key, v: v})
	return v, nil
}

// Run executes one trial exactly like RunTrial, reusing the state's
// machine and buffers. The returned result aliases TrialState storage —
// Events, Records and System belong to the state — so it is valid only
// until the next Run on the same state and must not be retained past
// ReleaseTrialState. Callers that keep results (or the post-run System)
// should use RunTrial, which runs on a private, unpooled state.
//
//speclint:allocfree
func (ts *TrialState) Run(spec TrialSpec) (*TrialResult, error) {
	sys, l, v, err := ts.attackSystem(spec)
	if err != nil {
		return nil, err
	}
	ts.sink.recs = ts.sink.recs[:0]
	if spec.Trace {
		sys.Core(0).SetTraceHook(&ts.sink)
	}
	h := sys.Hierarchy()
	h.ResetLog()

	if spec.RefCycle > 0 {
		for sys.Cycle() < spec.RefCycle && !sys.AllHalted() {
			sys.Step()
		}
		if err := injectReference(sys, l); err != nil {
			return nil, err
		}
	}
	if err := sys.Run(trialMaxCycles); err != nil {
		return nil, err
	}

	ts.res = TrialResult{
		Events:          ts.res.Events[:0],
		sigBuf:          ts.res.sigBuf,
		sigMemo:         ts.res.sigMemo,
		sigNext:         ts.res.sigNext,
		SecretLineCycle: -1,
		VictimStats:     sys.Core(0).Stats(),
		Records:         ts.sink.recs,
		Layout:          l,
		Victim:          v,
		System:          sys,
	}
	probes := probeLines(spec.Gadget, spec.Ordering, l, v)
	secretLine := probes[0]
	for _, a := range h.Log() {
		for _, pl := range probes {
			if a.Line == pl {
				ts.res.Events = append(ts.res.Events, ProbeEvent{Core: a.Core, Line: a.Line, Cycle: a.Cycle})
				if a.Line == secretLine && ts.res.SecretLineCycle < 0 {
					ts.res.SecretLineCycle = a.Cycle
				}
				break
			}
		}
	}
	return &ts.res, nil
}

// receiver returns the QLRU receiver and its prime/probe programs for a
// replacement-state PoC, memoized per kind. Tweaked machines bypass the
// memo entirely: their geometry (and thus eviction sets) may differ.
func (ts *TrialState) receiver(h *cache.Hierarchy, l Layout, kind PoCKind, tweaked bool) (*QLRUReceiver, *isa.Program, *isa.Program, error) {
	if !tweaked && ts.recvOK && ts.recvKind == kind {
		return ts.recv, ts.prime, ts.probe, nil
	}
	recv, err := NewQLRUReceiver(h.Config(), l)
	if err != nil {
		return nil, nil, nil, err
	}
	prime, probe := recv.PrimeProgram(), recv.ProbeProgram()
	if !tweaked {
		ts.recv, ts.prime, ts.probe = recv, prime, probe
		ts.recvKind, ts.recvOK = kind, true
	}
	return recv, prime, probe, nil
}

// reloadProgram returns the Flush+Reload probe for target, memoized per
// target line (tweaked machines bypass the memo like receiver does).
func (ts *TrialState) reloadProgram(target int64, tweaked bool) *isa.Program {
	if !tweaked && ts.reloadOK && ts.reloadLine == target {
		return ts.reload
	}
	r := FlushReloadReceiver{Target: target}
	p := r.ReloadProgram()
	if !tweaked {
		ts.reload, ts.reloadLine, ts.reloadOK = p, target, true
	}
	return p
}
