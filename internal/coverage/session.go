// The session planner/executor.  Stage ordering and result folding
// must be deterministic: comparative experiments byte-compare session
// output across engines and runs.
//
//faultsim:deterministic

package coverage

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file is the campaign session layer: Plan describes an ordered
// set of test algorithms over one fault universe and memory factory;
// Run executes it as a pipeline.  The layering replaces "one runner ×
// one universe, stateless" with the structure comparative experiments
// actually have — several tests over the same universe — and exploits
// it three ways:
//
//   - cross-test fault dropping (Plan.Drop): once a fault is detected
//     by one test of the session it is dropped from the remaining
//     tests, which replay only the survivor subset.  Survivors are
//     held as a bitmap (fault.BitView over fault.BitSet, one bit per
//     universe fault); each stage streams its survivors (or their
//     collapse representatives) as one dense slice through the same
//     replay driver streaming sessions use.  Dropping is
//     verdict-preserving: a fault that IS simulated by a stage gets
//     exactly the verdict an independent campaign would give it
//     (verdicts are unconditional properties of the (runner, fault)
//     pair), and the session-level cumulative result is byte-identical
//     with dropping on or off.  What changes is bookkeeping: a
//     dropped-mode stage's Result covers only the faults presented to
//     it.
//
//   - cheapest-trace-first ordering (OrderCheapestFirst): stages run in
//     ascending clean-run length, so cheap tests pay for the easy kills
//     before expensive tests see the universe.
//
//   - a compiled-program cache (sim.ProgramCache): recording and
//     compiling a runner's trace is keyed by (runner identity, memory
//     geometry, initial image) and shared across sessions, so repeated
//     sweeps compile each trace once.  Runners opt in via TraceKeyer.

// Order selects the stage execution order of a session.
type Order int

const (
	// OrderAsGiven runs the stages in Plan.Runners order.
	OrderAsGiven Order = iota
	// OrderCheapestFirst runs stages in ascending clean-run operation
	// count (stable for ties) — the classic fault-dropping schedule:
	// cheap tests drop the easy faults before expensive tests run.
	OrderCheapestFirst
)

// Verdict is one stage's outcome for one universe fault.
type Verdict uint8

const (
	// VerdictUndetected: the stage simulated the fault and missed it.
	VerdictUndetected Verdict = iota
	// VerdictDetected: the stage simulated the fault and caught it.
	VerdictDetected
	// VerdictDropped: an earlier stage had already detected the fault,
	// so this stage never simulated it (Plan.Drop only).
	VerdictDropped
)

// TraceKeyer lets a runner opt in to the cross-session program cache.
// The key must uniquely determine the operation schedule and replay
// annotations the runner produces on any memory of a given geometry
// and initial image.  A display name is NOT enough: distinct
// configurations (E10's factor grid) share names, so implementations
// must serialise the full configuration.  Runners without the
// interface are recorded and compiled fresh each session — always
// correct, never cached.
type TraceKeyer interface {
	Runner
	// TraceKey returns the configuration-complete identity string.
	TraceKey() string
}

// Plan describes a campaign session.  The zero values give the default
// pipeline: compiled engine, no dropping, given order, no caching.
type Plan struct {
	// Name labels the session's cumulative result ("session" when
	// empty).
	Name string
	// Runners are the test algorithms, in presentation order:
	// Session.Results is always index-aligned with this slice whatever
	// the execution order.
	Runners []Runner
	// Universe is the shared fault universe.
	Universe fault.Universe
	// Stream, when non-nil, replaces Universe with a pull-based fault
	// source enumerated in bounded chunks (stream.go): the session then
	// holds O(Chunk × Workers) fault instances plus one bit per
	// universe fault, whatever the universe size.  Universe is ignored
	// while Stream is set.
	Stream *fault.Stream
	// Chunk is the faults-per-pull of a streaming session (<= 0 means
	// the package default; see SetDefaultChunk).
	Chunk int
	// Memory builds a fresh fault-free memory per trial.
	Memory MemoryFactory
	// Workers caps the campaign goroutines (<= 0 means the package
	// default).
	Workers int
	// LaneWords pins the lane width compiled programs use, in 64-machine
	// words (1, 4 or 8 — i.e. 64, 256 or 512 machines per batch).  <= 0
	// picks the width from the session's size: the widest at which
	// every worker still gets enough full batches (sim.LaneWordsFor
	// over the universe, or over a stream's exact count after
	// partitioning; a stream of unknown length runs 64-wide).  Only the
	// compiled engine is affected; the interpreter and oracle always
	// run 64-wide.
	LaneWords int
	// Engine selects the execution strategy for every stage (with the
	// usual per-stage oracle fallback for non-replayable runners).
	Engine Engine
	// Drop enables cross-test fault dropping; see the package comment
	// for the exact semantics.
	Drop bool
	// Order selects the stage execution order.
	Order Order
	// KeepVectors retains a per-runner verdict vector over the full
	// universe (Session.Vectors) — the property tests' view of exactly
	// what each stage simulated and decided.
	KeepVectors bool
	// Cache, when non-nil, memoizes compiled programs across sessions
	// for runners implementing TraceKeyer.  SharedProgramCache() is the
	// process-wide instance the CLI and benchmarks use.
	Cache *sim.ProgramCache
	// Checkpoint, when non-nil with a Path, makes a streaming session
	// durable: its state is persisted atomically on a cadence and the
	// session can resume from a prior checkpoint (durable.go).  nil
	// falls back to the process default (SetDefaultCheckpoint).
	// Materialized sessions ignore it.
	Checkpoint *CheckpointConfig
	// Sink selects the streaming chunk-sink discipline: SinkAuto (the
	// zero value) runs unordered whenever nothing needs ordering — no
	// checkpoint, no KeepVectors, no live progress callback — and
	// ordered otherwise; SinkOrdered/SinkUnordered force a path.  The
	// two paths are property-tested to produce identical Results; the
	// unordered one removes the serialized sink's contention (see
	// sim.ShardsCompiledUnordered).  Materialized sessions ignore it.
	Sink SinkMode
	// PartitionIndex/PartitionCount restrict a streaming session to
	// one index-range partition of its universe — partition
	// PartitionIndex (1-based) of PartitionCount near-equal ranges
	// (fault.PartitionRange).  The session then enumerates only that
	// subrange, its results tally only those faults, and its
	// checkpoints record the covered range for checkpoint.Merge.
	// PartitionCount <= 0 defers to the process default
	// (SetDefaultPartition).  Requires an exact-Count source and is
	// incompatible with KeepVectors; materialized sessions are never
	// partitioned.
	PartitionIndex, PartitionCount int
}

// StageStat reports one executed stage, in execution order.
type StageStat struct {
	// Runner is the stage's display name; RunnerIndex its position in
	// Plan.Runners (and so in Session.Results).
	Runner      string
	RunnerIndex int
	// Entered is the number of faults presented to the stage (the
	// survivor count when dropping; the full universe otherwise).
	Entered int
	// Detected is the number of presented faults the stage caught.
	Detected int
	// Survivors is the cumulative number of universe faults no stage
	// has detected yet, after this stage — the session-ordered coverage
	// progression (and, when dropping, the next stage's Entered).
	Survivors int
	// CacheHit reports that the stage's compiled program came from the
	// program cache (no recording or compilation happened).
	CacheHit bool
	// Stats is the stage's engine execution report.
	Stats *EngineStats
}

// Session is an executed Plan.
type Session struct {
	// Results holds one campaign Result per runner, index-aligned with
	// Plan.Runners.  Without dropping each is byte-identical to an
	// independent CampaignEngine run (the session property tests
	// enforce it); with dropping a stage's Result covers the faults
	// presented to it.
	Results []Result
	// Cumulative is the session-level result: a fault counts as
	// detected when at least one stage detected it.  It is identical
	// with dropping on or off.  OpsCleanRun totals the stages' clean
	// runs (the session's total test length).
	Cumulative Result
	// Stages reports the executed stages in execution order.
	Stages []StageStat
	// Vectors (KeepVectors only) holds per-runner verdicts over the
	// full universe, index-aligned with Plan.Runners.
	Vectors [][]Verdict
	// Interrupted reports that the session's context was cancelled
	// before every stage finished: the results cover only the work done
	// up to the cancellation point (the last running stage's Result is
	// itself tagged Interrupted, and later stages never ran).
	Interrupted bool
}

// defaultDrop is the Drop value Compare-built sessions use (the CLI's
// -drop flag); the zero value keeps sessions undropped.
var defaultDrop atomic.Bool

// SetDefaultDrop toggles cross-test fault dropping for Compare-built
// sessions.
func SetDefaultDrop(on bool) { defaultDrop.Store(on) }

// DefaultDrop reports whether Compare-built sessions drop.
func DefaultDrop() bool { return defaultDrop.Load() }

// sharedCache is the process-wide program cache.
var sharedCache = sim.NewProgramCache()

// SharedProgramCache returns the process-wide compiled-program cache
// used by Compare (and anything else that opts in via Plan.Cache).
func SharedProgramCache() *sim.ProgramCache { return sharedCache }

// sessionObserver, when set, receives every executed multi-runner
// session — the CLI hook behind faultcov -session.
var sessionObserver struct {
	mu sync.RWMutex
	fn func(*Plan, *Session)
}

// SetSessionObserver installs a callback invoked after every session
// of two or more runners completes (nil uninstalls).  It is a
// reporting hook for CLIs; the callback must not mutate the session.
func SetSessionObserver(fn func(*Plan, *Session)) {
	sessionObserver.mu.Lock()
	sessionObserver.fn = fn
	sessionObserver.mu.Unlock()
}

// stage is one runner's prepared execution state.
type stage struct {
	runner        Runner
	index         int
	cleanOps      uint64
	falsePositive bool
	prog          *sim.Program // compiled fast path
	tr            *sim.Trace   // bit-parallel fast path
	cacheHit      bool
	cacheTried    bool // a program-cache lookup happened during prepare
}

// Run executes the session under the process default context (see
// SetDefaultContext — context.Background() unless a CLI installed a
// signal-aware one).
func (p *Plan) Run() *Session { return p.RunContext(DefaultContext()) }

// RunContext executes the session under ctx.  Cancellation is
// cooperative at batch/chunk granularity: the in-flight stage drains
// its workers, its partial verdicts are folded into a well-formed
// Result tagged Interrupted, remaining stages are skipped, and the
// session returns with Session.Interrupted set.
func (p *Plan) RunContext(ctx context.Context) *Session {
	if p.Stream != nil {
		return p.runStream(ctx)
	}
	workers := p.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	nFaults := len(p.Universe.Faults)
	batchable := sim.Batchable(p.Universe.Faults)

	// Plan: one clean run (or cache hit) per runner, so the executor
	// knows every stage's trace, program and cost before ordering.
	stages := make([]*stage, len(p.Runners))
	for i, r := range p.Runners {
		stages[i] = p.prepareStage(r, i, batchable)
	}
	order := p.executionOrder(stages)

	s := &Session{Results: make([]Result, len(p.Runners))}
	if p.KeepVectors {
		s.Vectors = make([][]Verdict, len(p.Runners))
	}
	cum := make([]bool, nFaults)
	cumDetected := 0
	arenas := &sim.ArenaPool{}
	var scratch stageScratch
	reg := telemetry.Active()
	// Cross-test dropping bookkeeping: one bit per universe fault (set
	// while undetected), exposed to later stages as a fault.BitView —
	// the subset never costs more than N/8 bytes however many stages
	// narrow it.  nil until the first stage has run.
	var surv *fault.BitSet
	for _, st := range order {
		view := fault.Span(p.Universe.Faults)
		if p.Drop && surv != nil {
			view = fault.NewBitView(p.Universe.Faults, surv)
		}
		var before telemetry.Snapshot
		if reg != nil {
			before = reg.Snapshot()
			reg.BeginStage(st.runner.Name(), int64(view.Len()))
		}
		t0 := time.Now() //faultsim:ordered stage wall-clock is telemetry, reported beside the deterministic counts
		det, stats, err := p.detect(ctx, st, view, workers, arenas, &scratch)
		//faultsim:ordered stage wall-clock is telemetry, reported beside the deterministic counts
		finishStage(stats, st, view.Len(), time.Since(t0), reg, before)
		res := Result{
			Runner:        st.runner.Name(),
			Universe:      p.Universe.Name,
			Total:         view.Len(),
			ByClass:       make(map[fault.Class]ClassStat),
			OpsCleanRun:   st.cleanOps,
			FalsePositive: st.falsePositive,
			Stats:         stats,
			Interrupted:   err != nil,
		}
		for i := 0; i < view.Len(); i++ {
			cs := res.ByClass[view.At(i).Class()]
			cs.Total++
			if det[i] {
				cs.Detected++
				res.Detected++
				if u := view.Index(i); !cum[u] {
					cum[u] = true
					cumDetected++
				}
			}
			res.ByClass[view.At(i).Class()] = cs
		}
		s.Results[st.index] = res
		if s.Vectors != nil {
			vec := make([]Verdict, nFaults)
			if view.Len() != nFaults {
				for i := range vec {
					vec[i] = VerdictDropped
				}
			}
			for i := 0; i < view.Len(); i++ {
				if det[i] {
					vec[view.Index(i)] = VerdictDetected
				} else {
					vec[view.Index(i)] = VerdictUndetected
				}
			}
			s.Vectors[st.index] = vec
		}
		s.Stages = append(s.Stages, StageStat{
			Runner:      st.runner.Name(),
			RunnerIndex: st.index,
			Entered:     view.Len(),
			Detected:    res.Detected,
			Survivors:   nFaults - cumDetected,
			CacheHit:    st.cacheHit,
			Stats:       stats,
		})
		if err != nil {
			// Cancelled mid-stage: the verdict slice covers only the
			// chunks that completed (unsimulated faults read as
			// undetected, so Detected is a lower bound).  Remaining
			// stages never run.
			s.Interrupted = true
			break
		}
		if p.Drop {
			if surv == nil {
				surv = fault.NewBitSet(nFaults)
				for i := 0; i < view.Len(); i++ {
					if !det[i] {
						surv.Set(view.Index(i))
					}
				}
			} else {
				for i := 0; i < view.Len(); i++ {
					if det[i] {
						surv.Clear(view.Index(i))
					}
				}
			}
		}
		if reg != nil {
			reg.ReportSurvivors(int64(nFaults - cumDetected))
			p.reportStage(reg, s.Stages[len(s.Stages)-1])
		}
	}

	// Session-level cumulative coverage.
	cumRes := Result{
		Runner:      p.sessionName(),
		Universe:    p.Universe.Name,
		Total:       nFaults,
		Detected:    cumDetected,
		ByClass:     make(map[fault.Class]ClassStat),
		Interrupted: s.Interrupted,
	}
	for i, f := range p.Universe.Faults {
		cs := cumRes.ByClass[f.Class()]
		cs.Total++
		if cum[i] {
			cs.Detected++
		}
		cumRes.ByClass[f.Class()] = cs
	}
	sumCleanRuns(stages, &cumRes)
	s.Cumulative = cumRes

	p.notifyObserver(s)
	return s
}

// executionOrder applies Plan.Order to the prepared stages — shared by
// the materialized and streaming executors, which the property tests
// hold byte-identical.
func (p *Plan) executionOrder(stages []*stage) []*stage {
	order := make([]*stage, len(stages))
	copy(order, stages)
	if p.Order == OrderCheapestFirst {
		sort.SliceStable(order, func(a, b int) bool { return order[a].cleanOps < order[b].cleanOps })
	}
	return order
}

// sessionName labels the cumulative result.
func (p *Plan) sessionName() string {
	if p.Name == "" {
		return "session"
	}
	return p.Name
}

// UniverseName returns the universe label whichever shape the plan
// has: the stream's name for streaming sessions, the materialized
// universe's otherwise.
func (p *Plan) UniverseName() string {
	if p.Stream != nil {
		return p.Stream.Name
	}
	return p.Universe.Name
}

// finishStage completes a stage's engine report: the always-on timing
// fields (elapsed, faults/s, collapse ratio, cache lookups — every
// path gets them, oracle fallbacks included), plus the per-worker time
// split and arena-pool counters captured over the stage when a
// telemetry registry is attached.  presented is the fault count the
// stage was handed (the survivor subset when dropping).
func finishStage(stats *EngineStats, st *stage, presented int, elapsed time.Duration, reg *telemetry.Registry, before telemetry.Snapshot) {
	stats.Elapsed = elapsed
	if elapsed > 0 {
		stats.FaultsPerSec = float64(presented) / elapsed.Seconds()
	}
	stats.CollapseRatio = 1
	if presented > 0 {
		stats.CollapseRatio = float64(stats.Reps) / float64(presented)
	}
	if st.cacheTried {
		if st.cacheHit {
			stats.CacheHits = 1
		} else {
			stats.CacheMisses = 1
		}
	}
	if reg == nil {
		return
	}
	d := reg.Snapshot().Sub(before)
	stats.ArenaReuse, stats.ArenaFresh = d.ArenaReuse, d.ArenaFresh
	stats.CollapseTime = d.Collapse
	n := len(d.Workers)
	if stats.Workers < n {
		n = stats.Workers
	}
	if n <= 0 {
		return
	}
	stats.KernelTime = make([]time.Duration, n)
	stats.SinkWait = make([]time.Duration, n)
	stats.SourceWait = make([]time.Duration, n)
	for i := 0; i < n; i++ {
		stats.KernelTime[i] = d.Workers[i].Kernel
		stats.SinkWait[i] = d.Workers[i].SinkWait
		stats.SourceWait[i] = d.Workers[i].SourceWait
	}
}

// reportStage hands a completed stage to the telemetry registry's
// OnStage callback (the faultcov -progress per-stage report).
func (p *Plan) reportStage(reg *telemetry.Registry, st StageStat) {
	if reg == nil || st.Stats == nil {
		return
	}
	reg.StageDone(telemetry.StageReport{
		Universe:      p.UniverseName(),
		Stage:         st.Runner,
		Engine:        st.Stats.Engine.String(),
		Entered:       st.Entered,
		Detected:      st.Detected,
		Survivors:     st.Survivors,
		Elapsed:       st.Stats.Elapsed,
		FaultsPerSec:  st.Stats.FaultsPerSec,
		CollapseRatio: st.Stats.CollapseRatio,
		CacheHit:      st.CacheHit,
		KernelTime:    st.Stats.KernelTime,
		SinkWait:      st.Stats.SinkWait,
		SourceWait:    st.Stats.SourceWait,
	})
}

// sumCleanRuns folds the stages' clean-run metadata into the
// cumulative result.
func sumCleanRuns(stages []*stage, cum *Result) {
	for _, st := range stages {
		cum.OpsCleanRun += st.cleanOps
		cum.FalsePositive = cum.FalsePositive || st.falsePositive
	}
}

// notifyObserver reports a completed multi-runner session to the
// installed session observer, if any.
func (p *Plan) notifyObserver(s *Session) {
	if len(p.Runners) <= 1 {
		return
	}
	sessionObserver.mu.RLock()
	fn := sessionObserver.fn
	sessionObserver.mu.RUnlock()
	if fn != nil {
		fn(p, s)
	}
}

// prepareStage runs the clean baseline for one runner: under the
// replay engines the run is recorded (and, for the compiled engine,
// lowered to a program — or fetched from the cache without running at
// all); otherwise it is a plain clean run.  A false-positive clean run
// or a non-replayable trace leaves the stage on the oracle, exactly as
// CampaignEngine always fell back.
func (p *Plan) prepareStage(r Runner, index int, batchable bool) *stage {
	st := &stage{runner: r, index: index}
	_, replaySafe := r.(ReplaySafe)
	if p.Engine == EngineOracle || !replaySafe || !batchable {
		st.falsePositive, st.cleanOps = runClean(r, p.Memory)
		return st
	}
	lanes := p.laneWords()
	mem := p.Memory()
	var key sim.ProgramKey
	cached := false
	if tk, ok := r.(TraceKeyer); ok && p.Cache != nil && p.Engine == EngineCompiled {
		key = sim.ProgramKey{
			Runner:   tk.TraceKey(),
			Size:     mem.Size(),
			Width:    mem.Width(),
			Lanes:    lanes,
			InitHash: sim.InitHash(mem),
		}
		cached = true
		st.cacheTried = true
		if e, hit := p.Cache.Get(key); hit {
			st.prog, st.cleanOps, st.cacheHit = e.Prog, e.CleanOps, true
			return st
		}
	}
	tr, cleanDetected, cleanOps := sim.Record(mem, r.Run)
	st.cleanOps = cleanOps
	st.falsePositive = cleanDetected
	// A false-positive clean run breaks the checked-read criterion
	// (clean values no longer equal the algorithm's expectations), and
	// an unannotated trace has nothing to replay: both keep the oracle
	// semantics.
	if cleanDetected || !tr.Replayable() {
		return st
	}
	if p.Engine == EngineBitParallel {
		st.tr = tr
		return st
	}
	prog, err := sim.Compile(tr, lanes)
	if err != nil {
		// Replayability was pre-checked, so an error here is a broken
		// invariant in the engine — failing loudly beats silently
		// delivering correct-but-slow oracle results under a fast-path
		// label.
		panic(fmt.Sprintf("coverage: compile of %s: %v", r.Name(), err))
	}
	st.prog = prog
	if cached {
		p.Cache.Put(key, &sim.CachedProgram{Prog: prog, CleanOps: cleanOps})
	}
	return st
}

// laneWords resolves the plan's effective compiled lane width in
// 64-machine words (see Plan.LaneWords).
func (p *Plan) laneWords() int {
	if p.LaneWords > 0 {
		return p.LaneWords
	}
	workers := p.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if p.Stream == nil {
		return sim.LaneWordsFor(len(p.Universe.Faults), workers)
	}
	n, exact := p.Stream.Source.Count()
	if !exact {
		return 1
	}
	if idx, cnt := p.partitionSpec(); cnt > 0 {
		lo, hi := fault.PartitionRange(n, idx-1, cnt)
		n = hi - lo
	}
	return sim.LaneWordsFor(n, workers)
}

// runClean measures the clean baseline for oracle-path stages.
func runClean(r Runner, mk MemoryFactory) (falsePositive bool, ops uint64) {
	detected, ops := r.Run(mk())
	return detected, ops
}

// detect runs one stage over the view and returns per-view-position
// verdicts plus the engine report.  Every engine runs on the streaming
// driver (detectStream): the stage's dense fault slice — the collapse
// representatives, or else the view's faults — is streamed through
// fault.SliceSource and the sink stores each verdict by position.  The
// error is non-nil exactly when ctx was cancelled (the verdicts then
// cover only the chunks that completed; the rest read as undetected);
// any other driver failure panics, as a broken engine invariant.
//
// The returned verdicts live in scratch and are valid until the next
// detect call on the same scratch.
func (p *Plan) detect(ctx context.Context, st *stage, view fault.View, workers int, arenas *sim.ArenaPool, scratch *stageScratch) ([]bool, *EngineStats, error) {
	var col fault.Collapsed
	collapsed := st.prog != nil && CollapseEnabled()
	reg := telemetry.Active()
	var credit telemetry.Local
	var t0 time.Time
	var faults []fault.Fault
	switch {
	case collapsed:
		if reg != nil {
			t0 = time.Now() //faultsim:ordered collapse timing is telemetry only
		}
		sum := st.prog.Summary()
		col = scratch.collapser.CollapseView(view, &sum)
		faults = col.Reps
		if reg != nil {
			credit.CollapseNanos = uint64(time.Since(t0)) //faultsim:ordered collapse timing is telemetry only
		}
	case view.Len() == len(p.Universe.Faults):
		faults = p.Universe.Faults
	default:
		faults = scratch.faults[:0]
		for i := 0; i < view.Len(); i++ {
			faults = append(faults, view.At(i))
		}
		scratch.faults = faults
	}
	det := grow(&scratch.rep, len(faults))
	stats, err := p.detectStream(ctx, st, fault.SliceSource(faults), sim.StreamConfig{Workers: workers, Arenas: arenas},
		func(_, _ int, idx []int, _ []fault.Fault, d []bool) {
			for i, u := range idx {
				det[u] = d[i]
			}
		})
	if collapsed {
		if reg != nil {
			t0 = time.Now() //faultsim:ordered collapse timing is telemetry only
		}
		expanded := grow(&scratch.det, view.Len())
		col.ExpandInto(expanded, det)
		det = expanded
		if reg != nil {
			credit.CollapseNanos += uint64(time.Since(t0)) //faultsim:ordered collapse timing is telemetry only
			// The driver counted the representatives it simulated;
			// credit the expanded remainder so the registry's
			// presented-fault total (and the progress Done count) stays
			// exact.  Skipped on cancellation: the stage did not finish,
			// so the progress total is not owed.
			if err == nil {
				credit.Faults = uint64(view.Len() - len(faults))
			}
			reg.Flush(reg.Worker(0), &credit)
		}
	}
	return det, stats, err
}

// stageScratch is the materialized executor's per-stage state, reused
// by every stage of a session: the collapser's index table, the
// gathered survivor slice and the two verdict buffers are sized by
// the largest stage.
type stageScratch struct {
	collapser fault.Collapser
	faults    []fault.Fault
	rep, det  []bool
}

// grow returns (*buf)[:n] cleared, reallocating only when n outgrows
// the buffer.
func grow(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	b := (*buf)[:n]
	clear(b)
	return b
}

// FormatStages renders the session's stage progression as one line:
// "MATS+ 1292→301 (1.2ms, 1.1M faults/s); March C- 301→4 (…)"
// (entered→survivors with stage timing, execution order) — the
// faultcov -session report.  A stage that was presented faults but
// detected none is marked "[no detections]": under dropping its whole
// run bought nothing.
func (s *Session) FormatStages() string {
	parts := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		parts[i] = fmt.Sprintf("%s %d→%d", st.Runner, st.Entered, st.Survivors)
		if st.Stats != nil && st.Stats.Elapsed > 0 {
			parts[i] += fmt.Sprintf(" (%s, %s faults/s)",
				FormatDuration(st.Stats.Elapsed), FormatRate(st.Stats.FaultsPerSec))
		}
		if st.Entered > 0 && st.Detected == 0 {
			parts[i] += " [no detections]"
		}
	}
	return strings.Join(parts, "; ")
}

// FormatRate renders a faults/s figure compactly ("1.2M", "534k").
func FormatRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// FormatDuration rounds a stage time to report precision.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
