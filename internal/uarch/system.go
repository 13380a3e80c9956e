package uarch

import (
	"fmt"

	"specinterference/internal/cache"
	"specinterference/internal/isa"
	"specinterference/internal/mem"
)

// PortConfig describes one issue port and its single execution unit.
type PortConfig struct {
	// Classes lists the instruction classes this port serves.
	Classes []isa.Class
}

// serves reports whether the port can execute class c.
func (p PortConfig) serves(c isa.Class) bool {
	for _, pc := range p.Classes {
		if pc == c {
			return true
		}
	}
	return false
}

// Config describes a core (all cores in a System are homogeneous).
type Config struct {
	// FetchWidth is the maximum instructions fetched per cycle.
	FetchWidth int
	// DispatchWidth is the maximum instructions renamed/dispatched per cycle.
	DispatchWidth int
	// RetireWidth is the maximum instructions retired per cycle.
	RetireWidth int
	// ROBSize is the reorder-buffer capacity.
	ROBSize int
	// RSSize is the unified reservation-station capacity (the paper's Kaby
	// Lake holds 97 micro-ops; GIRS fills this structure).
	RSSize int
	// FetchBufSize is the decoded-instruction buffer between fetch and
	// dispatch; once RS back-pressure fills it, fetch stops (GIRS).
	FetchBufSize int
	// CDBWidth is the number of results the common data bus can write back
	// per cycle; contention delays the losers (Figure 1).
	CDBWidth int
	// RedirectPenalty is the cycles between a squash and fetch resuming at
	// the correct PC.
	RedirectPenalty int
	// BPEntries sizes the branch predictor (power of two).
	BPEntries int
	// Ports lists the issue ports. Non-pipelined classes (Sqrt/Div) occupy
	// their unit for the whole operation latency.
	Ports []PortConfig
	// Cache configures the shared memory hierarchy.
	Cache cache.Config

	// HoldRSUntilSafe keeps an instruction's reservation station allocated
	// until it is safe (advanced-defense rule 1, §5.4: no early release of
	// resources).
	HoldRSUntilSafe bool
	// AgePriorityArb gives older instructions strict precedence on the CDB
	// and lets them preempt younger instructions occupying non-pipelined
	// units ("squashable EUs", advanced-defense rule 2, §5.4).
	AgePriorityArb bool
	// YoungestFirstIssue flips issue arbitration to prefer the youngest
	// ready instruction (an ablation knob; the default, false, is the
	// oldest-first scheduling the paper's cascade relies on).
	YoungestFirstIssue bool
}

// DefaultConfig returns a Kaby-Lake-shaped configuration: 4-wide front end,
// 192-entry ROB, 97-entry unified RS, 8 ports with one non-pipelined
// Sqrt/Div unit, 4-wide CDB, and the cache.DefaultConfig hierarchy.
func DefaultConfig(cores int) Config {
	return Config{
		FetchWidth:      4,
		DispatchWidth:   4,
		RetireWidth:     4,
		ROBSize:         192,
		RSSize:          97,
		FetchBufSize:    16,
		CDBWidth:        4,
		RedirectPenalty: 2,
		BPEntries:       512,
		Ports: []PortConfig{
			{Classes: []isa.Class{isa.ClassSqrt}},
			{Classes: []isa.Class{isa.ClassMul}},
			{Classes: []isa.Class{isa.ClassALU}},
			{Classes: []isa.Class{isa.ClassALU}},
			{Classes: []isa.Class{isa.ClassLoad}},
			{Classes: []isa.Class{isa.ClassLoad}},
			{Classes: []isa.Class{isa.ClassStore}},
			{Classes: []isa.Class{isa.ClassBranch}},
		},
		Cache: cache.DefaultConfig(cores),
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	type bound struct {
		name string
		v    int
	}
	for _, b := range []bound{
		{"FetchWidth", c.FetchWidth}, {"DispatchWidth", c.DispatchWidth},
		{"RetireWidth", c.RetireWidth}, {"ROBSize", c.ROBSize},
		{"RSSize", c.RSSize}, {"FetchBufSize", c.FetchBufSize},
		{"CDBWidth", c.CDBWidth}, {"BPEntries", c.BPEntries},
	} {
		if b.v < 1 {
			return fmt.Errorf("uarch: %s must be >= 1, got %d", b.name, b.v)
		}
	}
	if c.RedirectPenalty < 0 {
		return fmt.Errorf("uarch: RedirectPenalty must be >= 0")
	}
	if len(c.Ports) == 0 {
		return fmt.Errorf("uarch: at least one port required")
	}
	need := []isa.Class{isa.ClassALU, isa.ClassMul, isa.ClassSqrt,
		isa.ClassLoad, isa.ClassStore, isa.ClassBranch}
	for _, cls := range need {
		found := false
		for _, p := range c.Ports {
			if p.serves(cls) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("uarch: no port serves class %s", cls)
		}
	}
	return nil
}

// CoreStats aggregates per-core counters.
type CoreStats struct {
	// Cycles the core was active (until halt).
	Cycles int64
	// Retired dynamic instructions.
	Retired int64
	// Fetched dynamic instructions (including squashed ones).
	Fetched int64
	// Squashes counts pipeline flushes.
	Squashes int64
	// SquashedInsts counts instructions flushed by squashes.
	SquashedInsts int64
	// RSFullStallCycles counts cycles dispatch stalled on a full RS.
	RSFullStallCycles int64
	// ROBFullStallCycles counts cycles dispatch stalled on a full ROB.
	ROBFullStallCycles int64
	// FetchStallCycles counts cycles fetch could not deliver (buffer full,
	// I-miss pending, shadow stall).
	FetchStallCycles int64
	// MSHRRetries counts load issue retries due to a full MSHR file.
	MSHRRetries int64
	// LoadsDelayed counts loads parked by an ActDelay policy decision.
	LoadsDelayed int64
	// LoadsInvisible counts loads that completed invisibly.
	LoadsInvisible int64
	// Exposes counts visible re-accesses of invisibly completed loads.
	Exposes int64
	// IssueGateStalls counts what a policy that gates issue (the fence
	// defenses, see CanIssue) holds back: each cycle, every operand-ready
	// unissued RS entry younger than the safe limit (the oldest entry
	// its Shadow model waits on) and older than every unretired fence,
	// once per port serving its class.
	IssueGateStalls int64
	// CDBConflicts counts writebacks delayed by CDB contention.
	CDBConflicts int64
}

// IPC returns retired instructions per active cycle.
func (s CoreStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// InstRecord is the per-dynamic-instruction trace record delivered to a
// TraceHook at retire or squash time.
type InstRecord struct {
	Seq      int64
	PC       int
	Inst     isa.Inst
	Fetch    int64
	Dispatch int64
	Issue    int64 // -1 if never issued
	Complete int64 // -1 if never completed
	Retire   int64 // -1 if squashed
	Squashed bool
	// Level is where a load's data came from (loads only).
	Level cache.Level
	// Addr is the effective address (memory ops only).
	Addr int64
}

// TraceHook receives instruction records as they leave the pipeline.
type TraceHook interface {
	Record(core int, r InstRecord)
}

// System is a lockstep multi-core machine over one shared hierarchy and
// flat memory.
type System struct {
	cfg   Config
	mem   *mem.Memory
	hier  *cache.Hierarchy
	cores []*Core
	cycle int64

	// fastForward enables idle-cycle skipping in Run/RunUntilCoreHalts
	// (on by default; see runUntil). snaps is the per-core stat snapshot
	// buffer the skip accounting reuses.
	fastForward bool
	snaps       []idleStats
}

// NewSystem builds a system; every core starts halted with no program.
func NewSystem(cfg Config, m *mem.Memory) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("uarch: nil memory")
	}
	h := cache.NewHierarchy(cfg.Cache)
	s := &System{cfg: cfg, mem: m, hier: h, fastForward: true}
	for i := 0; i < cfg.Cache.Cores; i++ {
		s.cores = append(s.cores, newCore(i, s))
	}
	s.snaps = make([]idleStats, len(s.cores))
	return s, nil
}

// MustNewSystem is NewSystem panicking on error (test/harness convenience).
func MustNewSystem(cfg Config, m *mem.Memory) *System {
	s, err := NewSystem(cfg, m)
	if err != nil {
		panic(err)
	}
	return s
}

// Reset restores the system to the state NewSystem(cfg, mem.New()) returns
// with the cache seed set to seed — empty memory, cold caches, fresh cores,
// cycle zero — while reusing every internal array and the cores' entry
// pools. It is the allocation-free replacement for building a new system
// per trial (internal/core.TrialState).
func (s *System) Reset(seed uint64) {
	s.cfg.Cache.Seed = seed
	s.mem.Reset()
	s.hier.Reset(seed)
	for _, c := range s.cores {
		c.reset()
	}
	s.cycle = 0
}

// Hierarchy exposes the shared cache hierarchy.
func (s *System) Hierarchy() *cache.Hierarchy { return s.hier }

// Memory exposes the flat memory.
func (s *System) Memory() *mem.Memory { return s.mem }

// Core returns core i.
func (s *System) Core(i int) *Core { return s.cores[i] }

// NumCores returns the core count.
func (s *System) NumCores() int { return len(s.cores) }

// Cycle returns the global cycle counter.
func (s *System) Cycle() int64 { return s.cycle }

// Step advances the whole system by one cycle.
//
//speclint:allocfree
func (s *System) Step() {
	for _, c := range s.cores {
		c.tick(s.cycle)
	}
	s.cycle++
}

// AllHalted reports whether every core with a program has halted.
func (s *System) AllHalted() bool {
	for _, c := range s.cores {
		if !c.halted {
			return false
		}
	}
	return true
}

// SetFastForward enables or disables idle-cycle fast-forwarding in Run and
// RunUntilCoreHalts (enabled by default). Both settings produce
// bit-identical machines, stats, logs and cycle counts — the toggle exists
// so the equivalence tests can prove exactly that. Step never skips.
func (s *System) SetFastForward(on bool) { s.fastForward = on }

// runUntil advances the system until done() holds or budget cycles elapse,
// reporting whether done() held. It is cycle-for-cycle identical to
// calling Step in a loop; the only difference is speed. When a whole tick
// provably changed nothing (no core set progressed — per-cycle stall
// counters excepted), every subsequent cycle up to the earliest pending
// event must repeat it exactly, so the loop jumps the cycle counter there
// and multiplies out the idle tick's stat deltas instead of grinding one
// Go iteration per simulated cycle. The deltas are those of the first
// repeat, run between a snapshot of the stall counters and the jump, so
// only a tick that lets the loop skip pays for a snapshot. With no pending
// event at all (a non-halting deadlock), the remaining budget is consumed
// the same way.
//
//speclint:allocfree
func (s *System) runUntil(budget int64, done func() bool) bool {
	for budget > 0 {
		if done() {
			return true
		}
		s.Step()
		budget--
		if !s.fastForward || budget == 0 || s.progressed() {
			continue
		}
		now := s.cycle - 1
		next := noSeq
		active := false
		for _, c := range s.cores {
			if c.halted || c.paused {
				continue
			}
			active = true
			if t := c.nextEventAfter(now); t < next {
				next = t
			}
		}
		if !active {
			continue
		}
		var skip int64
		if next == noSeq {
			skip = budget
		} else if next > now+1 {
			skip = min(next-now-1, budget)
		}
		if skip <= 0 {
			continue
		}
		for i, c := range s.cores {
			if !c.halted && !c.paused {
				s.snaps[i] = c.snapIdleStats()
			}
		}
		s.Step()
		skip--
		for i, c := range s.cores {
			if !c.halted && !c.paused {
				c.applyIdleCycles(skip, s.snaps[i])
			}
		}
		s.cycle += skip
		budget -= 1 + skip
	}
	return done()
}

// progressed reports whether any core's last tick made progress.
func (s *System) progressed() bool {
	for _, c := range s.cores {
		if c.progressed {
			return true
		}
	}
	return false
}

// Run steps until all cores halt or maxCycles elapse, returning an error in
// the latter case.
func (s *System) Run(maxCycles int64) error {
	if s.runUntil(maxCycles, s.AllHalted) {
		return nil
	}
	return fmt.Errorf("uarch: %d cycles elapsed without all cores halting", maxCycles)
}

// RunUntilCoreHalts steps until core i halts, for phase-structured
// experiments where other cores are paused or already halted.
func (s *System) RunUntilCoreHalts(i int, maxCycles int64) error {
	if s.runUntil(maxCycles, s.cores[i].Halted) {
		return nil
	}
	return fmt.Errorf("uarch: core %d did not halt within %d cycles", i, maxCycles)
}
