// Package coverage runs fault-injection campaigns: a test algorithm ×
// a fault universe → per-class detection statistics.  It is the engine
// behind the quantitative experiments (E4, E5, E6, E9, E10) comparing
// pseudo-ring testing with the March baselines.
package coverage

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bist"
	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/sim"
)

// Runner is a memory test algorithm under evaluation.
type Runner interface {
	// Name labels the algorithm in reports.
	Name() string
	// Run executes the test on mem and reports whether a fault was
	// detected and how many memory operations were spent.
	Run(mem ram.Memory) (detected bool, ops uint64)
}

// ReplaySafe marks runners eligible for the bit-parallel trace-replay
// engine: the operation schedule is deterministic and independent of
// read values, every value-dependent write is annotated as an affine
// function of preceding reads (ram.TraceAnnotator), and detection is
// exactly "some checked read diverges from its fault-free value, or a
// signature observer's accumulator differs from its prediction at an
// annotated compare point".  MISR/BIST compression of read streams is
// replayable via the fold/observe annotations — the observer path
// reproduces aliasing bit-exactly.  Only runners with un-annotated
// adaptive stimuli or detection criteria outside those two forms must
// not implement it; they stay on the per-fault oracle.
type ReplaySafe interface {
	Runner
	// ReplaySafe is a marker method.
	ReplaySafe()
}

// Engine selects the campaign execution strategy.
type Engine int

const (
	// EngineCompiled lowers the recorded trace into a flat instruction
	// program once per campaign and replays it over per-worker arenas
	// with width-specialized kernels and structural fault collapsing —
	// the default, allocation-free fast path.  It falls back to the
	// oracle per-universe when the runner or a fault cannot take it.
	EngineCompiled Engine = iota
	// EngineBitParallel replays the recorded trace over 64-machine
	// batches with the per-batch interpreter (the PR 1 path, kept as a
	// mid-tier reference: it rebuilds the machine array every batch).
	EngineBitParallel
	// EngineOracle re-runs the full algorithm once per injected fault —
	// the reference semantics every optimisation is measured against.
	EngineOracle
)

func (e Engine) String() string {
	switch e {
	case EngineOracle:
		return "oracle"
	case EngineBitParallel:
		return "bitpar"
	default:
		return "compiled"
	}
}

// ParseEngine converts a -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "compiled", "arena":
		return EngineCompiled, nil
	case "bitpar", "bit-parallel", "sim":
		return EngineBitParallel, nil
	case "oracle", "reference":
		return EngineOracle, nil
	}
	return 0, fmt.Errorf("coverage: unknown engine %q (want oracle, bitpar or compiled)", s)
}

// defaultEngine is the engine Campaign uses; the compiled path is the
// default fast path and is property-tested to produce results
// byte-identical to the oracle.
var defaultEngine atomic.Int32

// SetDefaultEngine switches the engine used by Campaign (and so by
// every experiment table).
func SetDefaultEngine(e Engine) { defaultEngine.Store(int32(e)) }

// DefaultEngine returns the engine Campaign currently uses.
func DefaultEngine() Engine { return Engine(defaultEngine.Load()) }

// defaultWorkers is the worker count used when a campaign is invoked
// with workers <= 0; its own zero value defers to GOMAXPROCS.
var defaultWorkers atomic.Int32

// SetDefaultWorkers fixes the worker count campaigns use when invoked
// with workers <= 0 (the -workers flag); n <= 0 restores GOMAXPROCS.
func SetDefaultWorkers(n int) { defaultWorkers.Store(int32(n)) }

// DefaultWorkers returns the effective default worker count.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultLaneWords is the lane width, in 64-machine words, that
// compiled stages large enough to use it run at: sim.MaxLaneWords.  A
// plan that leaves LaneWords unset picks each session's width from its
// size (sim.LaneWordsFor), so small stages compile narrower.
func DefaultLaneWords() int { return sim.MaxLaneWords }

// defaultCtx, when set, is the ambient context campaigns invoked
// through the context-less entry points (Plan.Run, Campaign, Compare,
// the experiment tables) execute under — the CLI installs its
// signal-cancelled context here so SIGINT/SIGTERM reaches every replay
// driver without threading a parameter through each experiment.
//
//faultsim:ambient audited ambient-default hook: installed once by the CLI, read by context-less entry points, cleared by SetDefaultContext(nil)
var defaultCtx atomic.Pointer[context.Context]

// SetDefaultContext installs the ambient campaign context (nil
// restores context.Background()).
func SetDefaultContext(ctx context.Context) {
	if ctx == nil {
		defaultCtx.Store(nil)
		return
	}
	defaultCtx.Store(&ctx)
}

// DefaultContext returns the ambient campaign context.
func DefaultContext() context.Context {
	if p := defaultCtx.Load(); p != nil {
		return *p
	}
	//faultsim:ambient the documented fallback when no CLI installed a context; campaigns then run uncancellable by design
	return context.Background()
}

// SinkMode selects the streaming chunk-sink discipline of a Plan.
type SinkMode int

const (
	// SinkAuto picks per session: ordered whenever something needs the
	// serialized, order-capable sink (checkpointing, KeepVectors, a
	// live progress callback), unordered otherwise.
	SinkAuto SinkMode = iota
	// SinkOrdered forces the serialized ChunkSink path.
	SinkOrdered
	// SinkUnordered forces per-worker sinks merged at drain — the
	// lock-free path.  Incompatible with checkpointing and KeepVectors
	// (both need ordered delivery); non-compiled stages (bitpar,
	// oracle — the reference paths) still run ordered.
	SinkUnordered
)

// String implements fmt.Stringer with the /metrics label values.
func (m SinkMode) String() string {
	switch m {
	case SinkOrdered:
		return "ordered"
	case SinkUnordered:
		return "unordered"
	}
	return "auto"
}

// defaultPartition packs the ambient partition spec (index<<32|count)
// of streaming sessions whose plan leaves PartitionCount unset — the
// faultcov -partition flag.  Zero means unpartitioned.
//
//faultsim:ambient audited ambient-default hook: installed once by the CLI, read by streaming sessions, cleared by SetDefaultPartition(0, 0)
var defaultPartition atomic.Uint64

// SetDefaultPartition restricts subsequently executed streaming
// sessions to universe partition index of count (1-based; count <= 0
// clears the restriction).  Materialized sessions are unaffected.
// Panics unless 1 <= index <= count.
func SetDefaultPartition(index, count int) {
	if count <= 0 {
		defaultPartition.Store(0)
		return
	}
	if index < 1 || index > count {
		panic(fmt.Sprintf("coverage: partition index %d outside [1, %d]", index, count))
	}
	defaultPartition.Store(uint64(index)<<32 | uint64(uint32(count)))
}

// DefaultPartition returns the ambient partition spec ((0, 0) when
// unpartitioned).
func DefaultPartition() (index, count int) {
	v := defaultPartition.Load()
	return int(v >> 32), int(uint32(v))
}

// collapseOff disables structural fault collapsing on the compiled
// engine; the zero value means collapsing is on.
var collapseOff atomic.Bool

// SetCollapse toggles structural fault collapsing of materialized
// universes (the -collapse flag); streamed universes are never
// collapsed.  Collapsing is exact — collapsed campaigns are
// property-tested byte-identical to full ones — so it defaults to on.
func SetCollapse(on bool) { collapseOff.Store(!on) }

// CollapseEnabled reports whether the compiled engine collapses
// materialized universes.
func CollapseEnabled() bool { return !collapseOff.Load() }

// MemoryFactory builds a fresh fault-free memory for each trial.
type MemoryFactory func() ram.Memory

// ClassStat is the per-fault-class tally.
type ClassStat struct {
	Total    int
	Detected int
}

// Ratio returns the detection ratio (0 when the class is empty).
func (c ClassStat) Ratio() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Total)
}

// Result aggregates one campaign.
type Result struct {
	Runner   string
	Universe string
	Total    int
	Detected int
	ByClass  map[fault.Class]ClassStat
	// OpsCleanRun is the operation count of the algorithm on a
	// fault-free memory (the test length).
	OpsCleanRun uint64
	// FalsePositive is set when the algorithm flags a fault-free
	// memory — a broken configuration.
	FalsePositive bool
	// Interrupted marks a partial result: the campaign's context was
	// cancelled before this stage finished.  Streaming sessions tally
	// only the faults actually simulated (every count carries a true
	// verdict); materialized sessions tally the whole presented view
	// with unsimulated faults reading as undetected, so Detected is a
	// lower bound there.  Either way the counts are well-formed but
	// not the full campaign.
	Interrupted bool
	// Stats describes how the campaign actually executed.  Engine
	// reports the strategy that really ran — when a replay-safe runner
	// records a non-replayable trace or a false-positive clean run, the
	// campaign falls back to the oracle and Stats says so instead of
	// leaving the requested engine's label standing.  It is diagnostic
	// metadata: Result equality is defined over the detection tallies,
	// so the equivalence tests zero it before comparing engines.
	Stats *EngineStats
}

// EngineStats is the campaign's execution report.
type EngineStats struct {
	// Engine is the strategy that actually ran (the oracle on
	// fallback, whatever was requested otherwise).
	Engine Engine
	// Workers is the effective goroutine count work was sharded over,
	// after clamping to the chunk count — a universe of one replay
	// batch run by one worker reports 1, not the requested pool size.
	Workers int
	// Reps is the number of faults simulated after collapsing
	// (== Total when collapsing was off or not applicable, and always
	// on a streamed stage).
	Reps int
	// ProgramOps and TrimmedOps report the compiled instruction count
	// and how many trailing trace ops the compiler dropped (compiled
	// engine only).
	ProgramOps int
	TrimmedOps int
	// LaneWords is the lane width the stage's program was compiled at
	// (64-machine words per lane; compiled engine only) — Plan.LaneWords
	// when pinned, else chosen from the session's size — and FusedOps
	// how many of its instructions are read-check-write super-ops.
	LaneWords int
	FusedOps  int
	// Elapsed is the wall time of the detection phase (the clean-run
	// recording and compilation are not included) and FaultsPerSec the
	// resulting throughput over presented faults.  Both are populated
	// on every path, oracle fallbacks included.
	Elapsed      time.Duration
	FaultsPerSec float64
	// CollapseRatio is Reps per presented fault: 1 with collapsing off
	// or inapplicable, smaller the harder collapsing worked.
	CollapseRatio float64
	// CacheHits/CacheMisses count the stage's program-cache lookups
	// (at most one of each: a stage looks its program up once).
	CacheHits, CacheMisses uint64
	// ArenaReuse/ArenaFresh count the stage's arena-pool checkouts
	// (telemetry registry attached only; zero otherwise).
	ArenaReuse, ArenaFresh uint64
	// KernelTime, SinkWait and SourceWait split each worker's stage
	// time: inside the replay kernel, blocked acquiring the serialized
	// streaming sink, and claiming chunks from the source.
	// Populated when a telemetry.Registry is attached; indexed by
	// worker slot.  SinkWait is the direct measure of streaming-sink
	// contention: if its share of Elapsed grows with the worker count,
	// the serialized sink is the scaling bottleneck.
	KernelTime, SinkWait, SourceWait []time.Duration
	// CollapseTime is the stage's time spent collapsing faults into
	// representatives and expanding their verdicts back, summed over
	// workers (telemetry registry attached and a collapsed materialized
	// stage; zero otherwise).
	CollapseTime time.Duration
	// Sink labels the streaming sink discipline the stage ran under —
	// "ordered" (serialized ChunkSink) or "unordered" (per-worker
	// sinks merged at drain); empty for materialized stages.
	Sink string
	// MergeNanos is the time spent folding the per-worker unordered
	// sinks into the session accumulators after the drivers drained
	// (unordered stages only) — the unordered path's whole
	// serialization cost, paid once per stage instead of once per
	// chunk.
	MergeNanos time.Duration
	// PartitionIndex is the 1-based index of the universe partition
	// this session ran (0 when the session spanned the full universe).
	PartitionIndex int
}

// SinkWaitShares returns each worker's sink-wait time as a fraction of
// the stage's wall time — the per-worker sink-contention report (nil
// when no per-worker telemetry was captured).
func (s *EngineStats) SinkWaitShares() []float64 {
	if s == nil || len(s.SinkWait) == 0 || s.Elapsed <= 0 {
		return nil
	}
	out := make([]float64, len(s.SinkWait))
	for i, d := range s.SinkWait {
		out[i] = float64(d) / float64(s.Elapsed)
	}
	return out
}

// Coverage returns the overall detection ratio.
func (r Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// Classes returns the classes present, in canonical order.
//
//faultsim:deterministic
func (r Result) Classes() []fault.Class {
	var out []fault.Class
	for c := range r.ByClass { //faultsim:ordered order-insensitive accumulation; sorted below
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Campaign injects every fault of the universe into a fresh memory and
// runs the algorithm, fanning trials across workers goroutines
// (0 = GOMAXPROCS).  Results are deterministic regardless of the
// worker count and identical for both engines (the bit-parallel path
// is property-tested against the oracle).
func Campaign(r Runner, u fault.Universe, mk MemoryFactory, workers int) Result {
	return CampaignEngine(r, u, mk, workers, DefaultEngine())
}

// CampaignEngine is Campaign with an explicit engine choice.  It is a
// single-stage session: the planner/executor in session.go is the one
// campaign code path, whether one runner or many execute.
func CampaignEngine(r Runner, u fault.Universe, mk MemoryFactory, workers int, engine Engine) Result {
	p := Plan{Runners: []Runner{r}, Universe: u, Memory: mk, Workers: workers, Engine: engine}
	return p.Run().Results[0]
}

// Sum aggregates the detected/total counts over several fault classes.
func Sum(byClass map[fault.Class]ClassStat, classes ...fault.Class) (detected, total int) {
	for _, c := range classes {
		s := byClass[c]
		detected += s.Detected
		total += s.Total
	}
	return detected, total
}

// Compare runs several algorithms over the same universe as one
// campaign session on the default engine, sharing the process-wide
// program cache, and returns the per-runner results in runner order.
// With the default settings every Result is byte-identical to an
// independent Campaign; SetDefaultDrop(true) (the faultcov -drop flag)
// enables cross-test fault dropping, after which each Result covers
// the faults the preceding runners left undetected.
func Compare(runners []Runner, u fault.Universe, mk MemoryFactory, workers int) []Result {
	p := Plan{
		Runners:  runners,
		Universe: u,
		Memory:   mk,
		Workers:  workers,
		Engine:   DefaultEngine(),
		Drop:     DefaultDrop(),
		Cache:    SharedProgramCache(),
	}
	return p.Run().Results
}

// --- runner adapters ---

// schemeTraceKey serialises a PRT scheme's full configuration for the
// program cache.  The display name is deliberately excluded: distinct
// configurations share names (E10's factor grid all run "PRT-3/sig"),
// and identically-configured schemes under different names record the
// same trace.
func schemeTraceKey(b *strings.Builder, s prt.Scheme) {
	for _, c := range s.Iters {
		if c.Gen.Field != nil {
			fmt.Fprintf(b, "g{%v|%v}", c.Gen.Field.Modulus(), c.Gen.Coeffs)
		}
		fmt.Fprintf(b, "s%v q%d t%d p%d r%t v%t cs%t se%v m%d;",
			c.Seed, c.Offset, int(c.Trajectory), c.PermSeed,
			c.Ring, c.Verify, c.CaptureStale, c.StaleExpect, c.MirrorOf)
	}
}

type marchRunner struct {
	test        march.Test
	backgrounds []ram.Word
}

// MarchRunner adapts a March algorithm; backgrounds nil means the
// single all-zero background.
func MarchRunner(t march.Test, backgrounds []ram.Word) Runner {
	if len(backgrounds) == 0 {
		backgrounds = []ram.Word{0}
	}
	return marchRunner{test: t, backgrounds: backgrounds}
}

func (m marchRunner) Name() string { return m.test.Name }

// ReplaySafe implements ReplaySafe: March stimuli are literal and
// every read is compared against its expected background value.
func (marchRunner) ReplaySafe() {}

// TraceKey implements TraceKeyer: the van de Goor notation plus the
// background set fully determines a March test's operation schedule.
func (m marchRunner) TraceKey() string {
	return fmt.Sprintf("march:%s|bg=%v", m.test, m.backgrounds)
}

func (m marchRunner) Run(mem ram.Memory) (bool, uint64) {
	r := march.RunBackgrounds(m.test, mem, m.backgrounds)
	return r.Detected, r.Ops
}

type prtRunner struct{ scheme prt.Scheme }

// PRTRunner adapts a pseudo-ring scheme.
func PRTRunner(s prt.Scheme) Runner { return prtRunner{scheme: s} }

func (p prtRunner) Name() string { return p.scheme.Name }

// ReplaySafe implements ReplaySafe: the π-test's recurrence writes are
// annotated as affine maps of the preceding reads, and all detection
// (signature, stale capture, verify) compares reads against fault-free
// predictions.
func (prtRunner) ReplaySafe() {}

// TraceKey implements TraceKeyer over the scheme's full configuration.
func (p prtRunner) TraceKey() string {
	var b strings.Builder
	b.WriteString("prt:")
	schemeTraceKey(&b, p.scheme)
	return b.String()
}

func (p prtRunner) Run(mem ram.Memory) (bool, uint64) {
	r, err := p.scheme.Run(mem)
	if err != nil {
		panic(fmt.Sprintf("coverage: scheme %s: %v", p.scheme.Name, err))
	}
	return r.Detected, r.Ops
}

type bitSlicedRunner struct {
	name string
	cfgs []prt.BitSlicedConfig
}

// BitSlicedRunner adapts a bit-sliced lane scheme.
func BitSlicedRunner(name string, cfgs []prt.BitSlicedConfig) Runner {
	return bitSlicedRunner{name: name, cfgs: cfgs}
}

func (b bitSlicedRunner) Name() string { return b.name }

// ReplaySafe implements ReplaySafe: the lane recurrences are annotated
// bit-diagonal linear maps and detection compares Fin and read-back
// values against per-lane predictions.
func (bitSlicedRunner) ReplaySafe() {}

// TraceKey implements TraceKeyer over the lane configurations.
func (b bitSlicedRunner) TraceKey() string {
	var sb strings.Builder
	sb.WriteString("bitsliced:")
	for _, c := range b.cfgs {
		if c.Gen.Field != nil {
			fmt.Fprintf(&sb, "g{%v|%v}", c.Gen.Field.Modulus(), c.Gen.Coeffs)
		}
		fmt.Fprintf(&sb, "m%d mode%d ls%d t%d p%d v%t;",
			c.M, int(c.Mode), c.LaneSeedSeed, int(c.Trajectory), c.PermSeed, c.Verify)
	}
	return sb.String()
}

func (b bitSlicedRunner) Run(mem ram.Memory) (bool, uint64) {
	r, err := prt.RunBitSlicedScheme(b.cfgs, mem)
	if err != nil {
		panic(fmt.Sprintf("coverage: bit-sliced %s: %v", b.name, err))
	}
	return r.Detected, r.Ops
}

type bistRunner struct {
	s     prt.Scheme
	alpha gf.Elem
}

// BISTRunner adapts the cycle-stepped on-chip BIST controller with
// MISR signature compression (bist.RunAllCompressed): every read the
// controller performs folds into an m-bit signature register that is
// compared against the virtual automaton's prediction after each
// iteration — the paper's §4 observer, aliasing included.  alpha is
// the MISR multiplier (0 selects the field generator).
func BISTRunner(s prt.Scheme, alpha gf.Elem) Runner {
	return bistRunner{s: s, alpha: alpha}
}

func (b bistRunner) Name() string { return b.s.Name + "/bist" }

// ReplaySafe implements ReplaySafe: the controller annotates every
// read as a GF(2)-linear fold into the signature observer and each
// iteration's compare as an observer compare point, so replay
// reproduces the compressed detection — aliased multi-error patterns
// included — bit-exactly.
func (bistRunner) ReplaySafe() {}

// TraceKey implements TraceKeyer over the scheme and MISR multiplier.
func (b bistRunner) TraceKey() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bist:a%d:", b.alpha)
	schemeTraceKey(&sb, b.s)
	return sb.String()
}

func (b bistRunner) Run(mem ram.Memory) (bool, uint64) {
	pass, cycles, err := bist.RunAllCompressed(b.s, mem, b.alpha)
	if err != nil {
		panic(fmt.Sprintf("coverage: bist %s: %v", b.s.Name, err))
	}
	return !pass, cycles
}

type dualPortRunner struct {
	name string
	run  func(mp *ram.MultiPort) (bool, uint64, error)
}

// DualPortRunner adapts a dual-port scheme; the faulty memory is
// wrapped with a two-port front end.
func DualPortRunner(name string, run func(mp *ram.MultiPort) (bool, uint64, error)) Runner {
	return dualPortRunner{name: name, run: run}
}

func (d dualPortRunner) Name() string { return d.name }

func (d dualPortRunner) Run(mem ram.Memory) (bool, uint64) {
	mp := ram.NewMultiPortOn(mem, 2)
	det, cycles, err := d.run(mp)
	if err != nil {
		panic(fmt.Sprintf("coverage: dual-port %s: %v", d.name, err))
	}
	return det, cycles
}
