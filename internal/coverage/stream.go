// The streaming session executor and its sink folds.  Everything that
// accumulates results here must be deterministic: streaming sessions
// are property-tested byte-identical to materialized ones and to
// interrupted-then-resumed ones.
//
//faultsim:deterministic

package coverage

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file is the streaming session executor: a Plan whose Stream
// field is set runs its stages over a fault.Source pulled in bounded
// chunks (sim.ShardsStream / sim.ShardsCompiledStream /
// sim.StreamShard for the oracle), so session memory is O(Chunk ×
// Workers) fault instances plus one bit per universe fault — the
// universe size stops being a memory bound.  Cross-test fault dropping is held as the cumulative
// detection bitmap: a later stage skips every fault some earlier stage
// already caught, exactly as the materialized executor's BitView path,
// and the streaming property tests assert byte-identical Results
// between the two executors for every universe family, engine and
// chunk size.
//
// Everything else — stage preparation, the program cache, ordering,
// engine fallbacks — is shared with the materialized executor.  The
// replay engines additionally require every streamed fault to support
// batch injection (all built-in fault models do); the per-fault oracle
// path has no such constraint.
//
// Durability (durable.go) composes onto the same loop: when a
// checkpoint is configured the chunk sink is wrapped to fold verdicts
// in contiguous universe order and persist the session state on a
// cadence, and a resumed session reconstructs its completed stages
// from the checkpoint and Skip()s the source past the in-flight
// stage's high-water mark.

// defaultChunk is the chunk size streaming sessions use when
// Plan.Chunk <= 0 (the faultcov -chunk flag); its own zero value
// defers to sim.DefaultChunk.
var defaultChunk atomic.Int32

// SetDefaultChunk fixes the faults-per-pull of streaming sessions
// invoked with Chunk <= 0 (n <= 0 restores sim.DefaultChunk).
func SetDefaultChunk(n int) { defaultChunk.Store(int32(n)) }

// DefaultChunk returns the effective default chunk size.
func DefaultChunk() int {
	if n := int(defaultChunk.Load()); n > 0 {
		return n
	}
	return sim.DefaultChunk
}

// CampaignStream runs a single-runner campaign over a streaming
// universe on the default engine — the bounded-memory analogue of
// Campaign.  chunk <= 0 selects the package default.  One divergence
// from Campaign: the replay engines require every streamed fault to
// support batch injection (all built-in fault models do) and fail
// loudly otherwise — a streaming session cannot probe the whole
// universe up front the way the materialized executor does before
// falling back to the oracle.  Universes of custom non-batchable
// faults must select EngineOracle explicitly.
func CampaignStream(r Runner, s *fault.Stream, mk MemoryFactory, workers, chunk int) Result {
	p := Plan{
		Runners: []Runner{r}, Stream: s, Chunk: chunk,
		Memory: mk, Workers: workers, Engine: DefaultEngine(),
		Cache: SharedProgramCache(),
	}
	return p.Run().Results[0]
}

// CompareStream is Compare over a streaming universe: one session,
// shared program cache, dropping per the process default.
func CompareStream(runners []Runner, s *fault.Stream, mk MemoryFactory, workers, chunk int) []Result {
	p := Plan{
		Runners: runners, Stream: s, Chunk: chunk,
		Memory: mk, Workers: workers, Engine: DefaultEngine(),
		Drop: DefaultDrop(), Cache: SharedProgramCache(),
	}
	return p.Run().Results
}

// runStream executes a streaming session.
func (p *Plan) runStream(ctx context.Context) *Session {
	workers := p.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	chunk := p.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk()
	}
	src := p.Stream.Source
	count, exactCount := src.Count() // capacity hint; bitmaps grow if it is low

	// Partitioning: restrict the session to universe indices
	// [partLo, partHi).  Delivered indices stay universe-absolute (the
	// SubSource view plus cfg.Base), so detection bitmaps and
	// checkpoints from different partitions OR/merge exactly.
	partIdx, partCnt := p.partitionSpec()
	partLo, partHi := 0, -1
	hiBound := count // bitmap capacity: the highest index this session can touch
	if partCnt > 0 {
		if !exactCount {
			panic(fmt.Sprintf("coverage: partitioning %s requires a source with an exact Count", p.Stream.Name))
		}
		if p.KeepVectors {
			panic("coverage: KeepVectors is incompatible with a partitioned session (vectors span the full universe)")
		}
		partLo, partHi = fault.PartitionRange(count, partIdx-1, partCnt)
		src = fault.SubSource(src, partLo, partHi)
		count = partHi - partLo
		// Full word capacity up to partHi, so the last partition's
		// bitmap words match the unpartitioned run's length and the
		// merged checkpoint is byte-identical to the single-process one.
		hiBound = partHi
	}

	// Stage preparation and ordering are shared with the materialized
	// executor.  Streamed faults are assumed batch-injectable (checked
	// per batch by the replay drivers, which fail loudly otherwise).
	stages := make([]*stage, len(p.Runners))
	for i, r := range p.Runners {
		stages[i] = p.prepareStage(r, i, true)
	}
	order := p.executionOrder(stages)

	// Durability setup: an explicit Plan.Checkpoint wins, else the
	// process default (the faultcov flags).  The resume state is either
	// explicit (strict: a mismatch is a programmer error) or the
	// ambient offer, consumed only if it matches this session.
	var d *durable
	var rs *checkpoint.State
	var names []string
	cp := p.Checkpoint
	if cp == nil {
		cp = ambientCheckpoint.Load()
	}
	if cp != nil && cp.Path != "" {
		if p.KeepVectors {
			panic("coverage: KeepVectors is incompatible with checkpointing (verdict vectors are not persisted)")
		}
		mem := p.Memory()
		spec := p.specHash()
		names = make([]string, len(order))
		for i, st := range order {
			names[i] = st.runner.Name()
		}
		d = newDurable(*cp, spec, mem.Size(), mem.Width())
		if cp.Resume != nil {
			if err := validateResume(cp.Resume, spec, mem.Size(), mem.Width(), cp.Seed, names, partLo, partHi); err != nil {
				panic(err.Error())
			}
			rs = cp.Resume
		} else if amb := ambientResume.Load(); amb != nil {
			if validateResume(amb, spec, mem.Size(), mem.Width(), cp.Seed, names, partLo, partHi) == nil &&
				ambientResume.CompareAndSwap(amb, nil) {
				rs = amb
			}
		}
	}

	s := &Session{Results: make([]Result, len(p.Runners))}
	if p.KeepVectors {
		s.Vectors = make([][]Verdict, len(p.Runners))
	}
	// Sink discipline for this session's compiled streaming stages:
	// anything needing ordered delivery (checkpoint prefix cuts,
	// verdict vectors, a live progress frontier) keeps the serialized
	// sink; otherwise per-worker sinks merged at drain.
	reg0 := telemetry.Active()
	sinkMode := p.Sink
	if sinkMode == SinkAuto {
		if d != nil || p.KeepVectors || reg0.ProgressAttached() {
			sinkMode = SinkOrdered
		} else {
			sinkMode = SinkUnordered
		}
	} else if sinkMode == SinkUnordered {
		if d != nil {
			panic("coverage: the unordered sink cannot checkpoint (durable cuts need ordered delivery)")
		}
		if p.KeepVectors {
			panic("coverage: the unordered sink cannot keep verdict vectors")
		}
	}

	cum := fault.NewBitSet(hiBound)
	cumDetected := 0
	classTotal := make(map[fault.Class]int)
	classDet := make(map[fault.Class]int)
	arenas := &sim.ArenaPool{}
	reg := telemetry.Active()
	universeN := -1 // presented count of the first executed stage = |universe|
	doneStages := 0
	var doneRecs []checkpoint.StageRecord

	// Resume: seed the session accumulators from the checkpoint and
	// reconstruct the completed stages' results from their records (the
	// stage metadata — clean-run cost, cache hits — comes from the
	// preparation above, which ran either way).
	if rs != nil {
		cum = fault.BitSetFromWords(append([]uint64(nil), rs.Bits...))
		cumDetected = cum.Count()
		tallyMaps(rs.Universe, classTotal, classDet)
		universeN = int(rs.UniverseN)
		doneStages = len(rs.Done)
		doneRecs = append(doneRecs, rs.Done...)
		for _, rec := range rs.Done {
			st := stages[rec.RunnerIndex]
			res := Result{
				Runner:        rec.Runner,
				Universe:      p.Stream.Name,
				Total:         int(rec.Entered),
				Detected:      int(rec.Detected),
				ByClass:       make(map[fault.Class]ClassStat),
				OpsCleanRun:   st.cleanOps,
				FalsePositive: st.falsePositive,
			}
			applyTallies(rec.ByClass, res.ByClass)
			s.Results[rec.RunnerIndex] = res
			s.Stages = append(s.Stages, StageStat{
				Runner:      rec.Runner,
				RunnerIndex: int(rec.RunnerIndex),
				Entered:     int(rec.Entered),
				Detected:    int(rec.Detected),
				Survivors:   int(rec.Survivors),
				CacheHit:    st.cacheHit,
			})
		}
	}

	// buildState serializes the session accumulators; cur is the
	// in-flight stage's partial record (zero between stages).
	buildState := func(cur checkpoint.StageRecord, highWater int, complete bool) *checkpoint.State {
		return &checkpoint.State{
			SpecHash:    d.spec,
			Seed:        d.cfg.Seed,
			Size:        d.size,
			Width:       d.width,
			PartitionLo: int64(partLo),
			PartitionHi: int64(partHi),
			Label:       d.cfg.Label,
			UniverseN:   int64(universeN),
			StageNames:  names,
			Done:        append([]checkpoint.StageRecord(nil), doneRecs...),
			Cur:         cur,
			HighWater:   int64(highWater),
			Complete:    complete,
			Universe:    classTallies(classTotal, classDet),
			Bits:        append([]uint64(nil), cum.Words()...),
		}
	}

	for si := doneStages; si < len(order); si++ {
		st := order[si]
		// The survivor filter for this stage is the cumulative detection
		// bitmap so far, snapshotted: the sink below keeps updating cum
		// while workers read the snapshot.  (On resume the snapshot also
		// carries this stage's own pre-interrupt detections — equivalent,
		// since those indices are below the seek point and never
		// presented again.)
		var stageDrop *fault.BitSet
		if p.Drop && cumDetected > 0 {
			stageDrop = cum.Clone()
		}
		res := Result{
			Runner:        st.runner.Name(),
			Universe:      p.Stream.Name,
			ByClass:       make(map[fault.Class]ClassStat),
			OpsCleanRun:   st.cleanOps,
			FalsePositive: st.falsePositive,
		}
		base := partLo
		if rs != nil && si == doneStages && !rs.Complete {
			// Resuming into this stage: restore its partial tallies and
			// seek past the contiguous completed prefix.
			base = int(rs.HighWater)
			res.Total = int(rs.Cur.Entered)
			res.Detected = int(rs.Cur.Detected)
			applyTallies(rs.Cur.ByClass, res.ByClass)
		}
		var vec []Verdict
		if s.Vectors != nil {
			vec = make([]Verdict, count)
			if stageDrop != nil {
				for i := range vec {
					vec[i] = VerdictDropped
				}
			}
		}
		tallyUniverse := universeN < 0
		vecFill := VerdictUndetected
		if stageDrop != nil {
			vecFill = VerdictDropped // what undelivered positions mean this stage
		}
		sink := sim.ChunkSink(func(_, _ int, idx []int, faults []fault.Fault, det []bool) {
			for i, f := range faults {
				c := f.Class()
				cs := res.ByClass[c]
				cs.Total++
				res.Total++
				u := idx[i]
				for vec != nil && u >= len(vec) { // inexact Count undershot
					vec = append(vec, vecFill)
				}
				if det[i] {
					cs.Detected++
					res.Detected++
					if !cum.Get(u) {
						cum.Set(u)
						cumDetected++
						classDet[c]++
					}
					if vec != nil {
						vec[u] = VerdictDetected
					}
				} else if vec != nil {
					vec[u] = VerdictUndetected
				}
				res.ByClass[c] = cs
				if tallyUniverse {
					classTotal[c]++
				}
			}
			// Live survivor count for the progress line: the sink runs
			// serialized, so cumDetected is coherent here.
			if reg != nil && exactCount {
				reg.ReportSurvivors(int64(count - cumDetected))
			}
		})
		if d != nil {
			d.beginStage(base)
			d.snap = func(hw int) *checkpoint.State {
				return buildState(checkpoint.StageRecord{
					Runner:      st.runner.Name(),
					RunnerIndex: int32(st.index),
					Entered:     int64(res.Total),
					Detected:    int64(res.Detected),
					ByClass:     resultTallies(res.ByClass),
				}, hw, false)
			}
			sink = d.wrap(sink)
		}
		src.Reset()
		if rel := base - partLo; rel > 0 {
			// Skip is view-relative on a partitioned source; delivered
			// indices stay absolute via cfg.Base below.
			if skipped := src.Skip(rel); skipped != rel {
				panic(fmt.Sprintf("coverage: resume seek of %s to %d stopped at %d — source shorter than the checkpoint's universe",
					p.Stream.Name, base, partLo+skipped))
			}
		}
		var before telemetry.Snapshot
		if reg != nil {
			before = reg.Snapshot()
			// The stage will present the universe minus what earlier
			// stages already detected (the drop filter); an inexact Count
			// (or a mid-stage resume) leaves the progress total unknown.
			total := int64(0)
			if exactCount && base == partLo {
				total = int64(count)
				if stageDrop != nil {
					total -= int64(cumDetected)
				}
			}
			reg.BeginStage(st.runner.Name(), total)
		}
		// Compiled stages without an ordered-sink requirement run on the
		// unordered driver: per-worker accumulators, merged below.  The
		// reference paths (bitpar, oracle) and ordered sessions keep the
		// serialized sink.
		useUnordered := sinkMode == SinkUnordered && st.prog != nil
		if reg != nil {
			reg.SetSinkMode(useUnordered)
		}
		t0 := time.Now() //faultsim:ordered stage wall-clock is telemetry, reported beside the deterministic counts
		cfg := sim.StreamConfig{Chunk: chunk, Workers: workers, Drop: stageDrop, Base: base, Arenas: arenas}
		var stats *EngineStats
		var err error
		if useUnordered {
			stats, err = p.detectStreamUnordered(ctx, st, src, cfg, &res,
				cum, &cumDetected, classTotal, classDet, tallyUniverse)
		} else {
			stats, err = p.detectStream(ctx, st, src, cfg, sink)
			stats.Sink = SinkOrdered.String()
		}
		stats.PartitionIndex = partIdx
		//faultsim:ordered stage wall-clock is telemetry, reported beside the deterministic counts
		finishStage(stats, st, res.Total, time.Since(t0), reg, before)
		res.Stats = stats
		if err != nil {
			res.Interrupted = true
			s.Interrupted = true
		}
		if tallyUniverse && err == nil {
			universeN = res.Total
		}
		s.Results[st.index] = res
		if vec != nil && err == nil {
			// Normalize to the enumerated universe size: an inexact Count
			// may have over-allocated (phantom trailing entries) or
			// undershot past the last delivered index (undelivered faults
			// keep this stage's fill meaning).
			for len(vec) < universeN {
				vec = append(vec, vecFill)
			}
			vec = vec[:universeN]
		}
		if s.Vectors != nil {
			s.Vectors[st.index] = vec
		}
		survivors := universeN - cumDetected
		if universeN < 0 {
			// Interrupted before the first stage finished enumerating:
			// the survivor count among the faults seen so far.
			survivors = res.Total - res.Detected
		}
		s.Stages = append(s.Stages, StageStat{
			Runner:      st.runner.Name(),
			RunnerIndex: st.index,
			Entered:     res.Total,
			Detected:    res.Detected,
			Survivors:   survivors,
			CacheHit:    st.cacheHit,
			Stats:       stats,
		})
		if err != nil {
			// Interrupted: flush a final checkpoint at the fold frontier
			// and stop — the remaining stages never ran.
			if d != nil {
				d.flush()
			}
			break
		}
		if d != nil {
			doneRecs = append(doneRecs, checkpoint.StageRecord{
				Runner:      st.runner.Name(),
				RunnerIndex: int32(st.index),
				Entered:     int64(res.Total),
				Detected:    int64(res.Detected),
				Survivors:   int64(survivors),
				ByClass:     resultTallies(res.ByClass),
			})
			d.snap = nil
			if si < len(order)-1 {
				// Stage-boundary checkpoint: the next stage at its range
				// start (high water partLo; 0 unpartitioned).
				next := order[si+1]
				d.write(buildState(checkpoint.StageRecord{
					Runner:      next.runner.Name(),
					RunnerIndex: int32(next.index),
				}, partLo, false))
			}
		}
		if reg != nil {
			reg.ReportSurvivors(int64(universeN - cumDetected))
			p.reportStage(reg, s.Stages[len(s.Stages)-1])
		}
	}
	if universeN < 0 {
		universeN = 0
	}

	cumRes := Result{
		Runner:      p.sessionName(),
		Universe:    p.Stream.Name,
		Total:       universeN,
		Detected:    cumDetected,
		ByClass:     make(map[fault.Class]ClassStat),
		Interrupted: s.Interrupted,
	}
	for c, total := range classTotal { //faultsim:ordered fills a map keyed by the same classes; order-insensitive
		cumRes.ByClass[c] = ClassStat{Total: total, Detected: classDet[c]}
	}
	sumCleanRuns(stages, &cumRes)
	s.Cumulative = cumRes

	if d != nil && !s.Interrupted {
		// Completion checkpoint: every stage in Done, nothing in flight.
		// Deliberately timestamp-free, so an uninterrupted run and an
		// interrupted-then-resumed run of the same campaign end with
		// byte-identical files.
		d.write(buildState(checkpoint.StageRecord{}, 0, true))
	}

	p.notifyObserver(s)
	return s
}

// partitionSpec resolves the session's partition restriction: the
// plan's explicit fields win, else the process default
// (SetDefaultPartition).  (0, 0) means unpartitioned.
func (p *Plan) partitionSpec() (index, count int) {
	if p.PartitionCount > 0 {
		if p.PartitionIndex < 1 || p.PartitionIndex > p.PartitionCount {
			panic(fmt.Sprintf("coverage: PartitionIndex %d outside [1, %d]", p.PartitionIndex, p.PartitionCount))
		}
		return p.PartitionIndex, p.PartitionCount
	}
	return DefaultPartition()
}

// detectStreamUnordered runs one compiled stage on the unordered
// driver: each worker folds its chunks into a private accumulator
// (detection bitmap plus class tallies) with no sink lock, and the
// accumulators are merged into the session state once after the
// drivers drain.  Sums and bit-ORs are order-insensitive and chunk
// index ranges are disjoint across workers, so the merged result is
// byte-identical to the serialized sink's whatever the scheduling —
// the unordered≡ordered property tests assert exactly that.  The
// whole serialization cost of the stage is the merge below, reported
// as EngineStats.MergeNanos.
func (p *Plan) detectStreamUnordered(ctx context.Context, st *stage, src fault.Source, cfg sim.StreamConfig,
	res *Result, cum *fault.BitSet, cumDetected *int, classTotal, classDet map[fault.Class]int,
	tallyUniverse bool) (*EngineStats, error) {
	nc := len(fault.Classes())
	type acc struct {
		det             *fault.BitSet
		total, detected int
		byClassTotal    []int // faults presented, by class
		byClassDet      []int // faults this stage detected, by class
		byClassNew      []int // first-ever detections, by class (vs the session prefix)
	}
	accs := make([]acc, cfg.Workers)
	sinkFor := func(w int) sim.ChunkSink {
		a := &accs[w]
		a.det = fault.NewBitSet(0)
		a.byClassTotal = make([]int, nc)
		a.byClassDet = make([]int, nc)
		a.byClassNew = make([]int, nc)
		return func(_, _ int, idx []int, faults []fault.Fault, det []bool) {
			for i, f := range faults {
				c := int(f.Class())
				a.byClassTotal[c]++
				a.total++
				if det[i] {
					a.byClassDet[c]++
					a.detected++
					u := idx[i]
					// cum is frozen during an unordered stage (the merge
					// below is the only writer), so reading it lock-free
					// here is the exact analogue of the ordered sink's
					// !cum.Get(u) check — each universe index is presented
					// at most once per stage.
					if !cum.Get(u) {
						a.byClassNew[c]++
					}
					a.det.Set(u)
				}
			}
		}
	}
	w, reps, err := sim.ShardsCompiledUnordered(ctx, st.prog, src, cfg, sinkFor)
	if err != nil && ctx.Err() == nil {
		panic(fmt.Sprintf("coverage: unordered compiled streaming replay of %s on %s: %v", st.runner.Name(), p.UniverseName(), err))
	}
	t0 := time.Now() //faultsim:ordered merge wall-clock is telemetry, reported beside the deterministic counts
	for i := range accs {
		a := &accs[i]
		if a.det == nil {
			continue // worker never started (cancelled before sinkFor)
		}
		res.Total += a.total
		res.Detected += a.detected
		for c := 0; c < nc; c++ {
			if a.byClassTotal[c] == 0 {
				continue
			}
			fc := fault.Class(c)
			cs := res.ByClass[fc]
			cs.Total += a.byClassTotal[c]
			cs.Detected += a.byClassDet[c]
			res.ByClass[fc] = cs
			if tallyUniverse {
				classTotal[fc] += a.byClassTotal[c]
			}
			if a.byClassNew[c] > 0 {
				classDet[fc] += a.byClassNew[c]
			}
		}
		cum.Or(a.det)
	}
	*cumDetected = cum.Count()
	return &EngineStats{
		Engine:     EngineCompiled,
		Workers:    w,
		Reps:       reps,
		ProgramOps: st.prog.Ops(),
		TrimmedOps: st.prog.TrimmedOps(),
		LaneWords:  st.prog.LaneWords(),
		FusedOps:   st.prog.FusedOps(),
		Sink:       SinkUnordered.String(),
		MergeNanos: time.Since(t0), //faultsim:ordered merge wall-clock is telemetry, reported beside the deterministic counts
	}, err
}

// detectStream runs one stage over the source and returns the engine
// report; verdicts flow to the sink chunk by chunk.  It is the one
// replay path of both executors: a materialized stage streams its
// dense fault slice through fault.SliceSource.  The error is non-nil
// exactly when ctx was cancelled (a partial run); any other driver
// failure panics, as a broken engine invariant.
func (p *Plan) detectStream(ctx context.Context, st *stage, src fault.Source, cfg sim.StreamConfig, sink sim.ChunkSink) (*EngineStats, error) {
	switch {
	case st.prog != nil:
		w, reps, err := sim.ShardsCompiledStream(ctx, st.prog, src, cfg, sink)
		if err != nil && ctx.Err() == nil {
			panic(fmt.Sprintf("coverage: compiled replay of %s on %s: %v", st.runner.Name(), p.UniverseName(), err))
		}
		return &EngineStats{
			Engine:     EngineCompiled,
			Workers:    w,
			Reps:       reps,
			ProgramOps: st.prog.Ops(),
			TrimmedOps: st.prog.TrimmedOps(),
			LaneWords:  st.prog.LaneWords(),
			FusedOps:   st.prog.FusedOps(),
		}, err
	case st.tr != nil:
		w, reps, err := sim.ShardsStream(ctx, st.tr, src, cfg, sink)
		if err != nil && ctx.Err() == nil {
			panic(fmt.Sprintf("coverage: bitpar replay of %s on %s: %v", st.runner.Name(), p.UniverseName(), err))
		}
		return &EngineStats{Engine: EngineBitParallel, Workers: w, Reps: reps}, err
	default:
		// The oracle: the generic driver pulls and filters chunks, the
		// replay closure runs the full algorithm on its one-fault batch
		// (so cancellation and work claims are per fault).
		w, reps, err := sim.StreamShard(ctx, src, cfg, 1, func() (func([]fault.Fault, []uint64) error, func()) {
			return func(batch []fault.Fault, det []uint64) error {
				det[0] = 0
				if d, _ := st.runner.Run(batch[0].Inject(p.Memory())); d {
					det[0] = 1
				}
				return nil
			}, nil
		}, sink)
		if err != nil && ctx.Err() == nil {
			panic(fmt.Sprintf("coverage: oracle run of %s on %s: %v", st.runner.Name(), p.UniverseName(), err))
		}
		return &EngineStats{Engine: EngineOracle, Workers: w, Reps: reps}, err
	}
}
