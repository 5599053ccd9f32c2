package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// This file is the campaign replay driver: the fault universe is
// pulled from a fault.Source in fixed-size chunks instead of being
// handed over as one slice, so a streamed campaign's resident fault
// storage is O(chunk × workers) — the universe size stops being a
// memory bound and becomes pure simulation time.  Materialized
// universes run on the same driver through fault.SliceSource.  Each
// worker owns one reusable chunk buffer (plus, on the compiled path,
// its arena); chunks are claimed from the source under a mutex,
// replayed as program-width batches (64 machines per lane word), and
// the per-chunk verdicts handed to a sink callback.  On the ordered
// path the driver serializes sink calls behind one mutex, so sinks
// need no locking of their own; on the unordered path
// (ShardsCompiledUnordered) each worker owns a private sink and
// delivers lock-free — the caller merges the per-worker sinks once
// after the drain.
// Chunk completion order is scheduling-dependent, but every chunk is
// keyed by its universe index range, so any order-insensitive sink
// (tallies, bitmaps) observes deterministic results — and an
// order-sensitive one (the checkpoint layer's contiguous-cut tracker)
// can reorder on the [base, base+n) keys it is handed.

// DefaultChunk is the fault count pulled per chunk when the caller
// passes chunk <= 0: large enough to amortize the per-chunk costs
// (source lock, sink call) over thousands of batches, small enough
// that a worker's resident faults stay ~100s of KB.
const DefaultChunk = 8192

// ChunkSink receives one completed chunk: the chunk claimed universe
// indices [base, base+n) from the source, and faults[i] (universe
// fault idx[i]) got verdict detected[i].  Chunks whose faults were all
// drop-filtered are still delivered (with empty slices), so a sink
// always observes every claimed index range exactly once — the
// invariant checkpoint cuts are built on.  The driver serializes sink
// calls; the slices are reused for the next chunk, so sinks must not
// retain them.
type ChunkSink func(base, n int, idx []int, faults []fault.Fault, detected []bool)

// StreamConfig parameterizes one replay driver run.  Streamed
// chunks are never structurally collapsed: on the exhaustive families
// a chunk holds almost no equivalent faults, so a collapse pass would
// cost more than the replays it saves.  Collapsing is a property of
// materialized universes (coverage.SetCollapse).
type StreamConfig struct {
	// Chunk is the faults-per-pull (<= 0 selects DefaultChunk).
	Chunk int
	// Workers caps the worker goroutines (<= 0 selects GOMAXPROCS).
	Workers int
	// Drop skips faults whose universe index is set (nil keeps
	// everything) — the survivor filter of cross-test fault dropping.
	Drop *fault.BitSet
	// Base is the universe index of the source's current position.  A
	// fresh source streams from 0; a checkpoint resume Skips the source
	// past the completed prefix and sets Base to the skip count so
	// delivered indices stay universe-absolute.
	Base int
	// Arenas optionally pools the per-worker arenas
	// (ShardsCompiledStream only; nil builds fresh ones).
	Arenas *ArenaPool
}

// chunksPerWorker is the fewest chunks each worker gets from an input
// of known size.  Claims must be fine enough that a stage does not end
// with one worker replaying a long last chunk while the others idle.
const chunksPerWorker = 16

// LaneWordsFor is the lane width (in 64-machine words) a stage of n
// faults compiles at on the given worker count (<= 0 selects
// GOMAXPROCS): the widest of 8, 4 and 1 at which every worker still
// gets chunksPerWorker full replay batches.  Wide batches amortize
// dispatch over more machines, but a small input needs narrow ones to
// spread over the pool.
func LaneWordsFor(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, w := range [...]int{MaxLaneWords, 4} {
		if n >= workers*chunksPerWorker*w*BatchSize {
			return w
		}
	}
	return 1
}

// sizes resolves the worker count and the per-worker chunk buffer
// length.  When src knows its exact size, neither exceeds what the
// stream can use: the chunk is capped at 1/chunksPerWorker of one
// worker's share of the input, rounded up to whole replay passes of
// granule faults, so a small input still spreads over the pool; there
// are no more workers than chunks and no buffer longer than the
// universe (a resumed source yields at most Count faults, so the
// bounds stay safe after a Skip).
func (c StreamConfig) sizes(src fault.Source, granule int) (workers, chunk int) {
	workers, chunk = c.Workers, c.Chunk
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if n, exact := src.Count(); exact {
		share := (n + chunksPerWorker*workers - 1) / (chunksPerWorker * workers)
		share = (share + granule - 1) / granule * granule
		chunk = max(1, min(chunk, share, n))
		workers = max(1, min(workers, (n+chunk-1)/chunk))
	}
	return workers, chunk
}

// StreamShard drives a streaming campaign over a generic replay
// function: workers pull chunks from src, skip faults filtered by
// cfg.Drop, replay the rest in batches of up to batchFaults faults
// through their private replay function (det receives the batch's
// detection mask, one word per 64 faults), and deliver verdicts to
// sink.  batchFaults is also the claim granule that bounds the chunk
// size of a small input (package coverage's oracle passes 1: one
// algorithm run per fault).  It returns the effective worker count and how many
// faults were simulated (after drop filtering).
//
// Cancellation is cooperative at batch granularity: ctx is checked on
// every chunk claim and between the chunk's batches, an interrupted
// chunk is abandoned without reaching the sink (the sink only ever
// sees complete chunks), workers drain, and the error is ctx.Err().
func StreamShard(ctx context.Context, src fault.Source, cfg StreamConfig, batchFaults int,
	newWorker func() (replay func(batch []fault.Fault, det []uint64) error, done func()),
	sink ChunkSink) (int, int, error) {
	return streamShard(ctx, src, cfg, batchFaults, newWorker, sharedSink(sink), true)
}

// sharedSink adapts a single serialized sink to the per-worker sink
// factory shape of the generalized driver.
func sharedSink(sink ChunkSink) func(worker int) ChunkSink {
	return func(int) ChunkSink { return sink } //faultsim:alloc-ok one closure per drive call
}

// ShardsStream replays a recorded trace over a streaming universe with
// the per-batch interpreter (ReplayBatch, which rebuilds the machine
// array for every batch) — the reference replay path.
func ShardsStream(ctx context.Context, tr *Trace, src fault.Source, cfg StreamConfig, sink ChunkSink) (int, int, error) {
	return streamShard(ctx, src, cfg, BatchSize, func() (func([]fault.Fault, []uint64) error, func()) {
		return func(batch []fault.Fault, det []uint64) error {
			mask, err := ReplayBatch(tr, batch)
			det[0] = mask
			return err
		}, nil
	}, sharedSink(sink), true)
}

// ShardsCompiledStream replays a compiled program over a streaming
// universe: one arena per worker, reused across every batch of every
// chunk (optionally drawn from cfg.Arenas).  A chunk is pulled,
// drop-filtered, replayed and delivered; it is not collapsed.
func ShardsCompiledStream(ctx context.Context, p *Program, src fault.Source, cfg StreamConfig, sink ChunkSink) (int, int, error) {
	return shardsCompiled(ctx, p, src, cfg, sharedSink(sink), true)
}

// ShardsCompiledUnordered is ShardsCompiledStream without the sink
// serialization: sinkFor(w) builds one private sink per worker, and
// each worker delivers its chunks to its own sink with no locking and
// no cross-worker ordering.  This removes the single-consumer
// bottleneck of the serialized path (per-worker sink-wait time is
// identically zero) for campaigns whose sinks are order-insensitive
// and mergeable — worker-local tallies and detection bitmaps, OR'd
// together once after the drivers drain.  Within one worker, chunks
// still arrive in claim order and every claimed index range is
// delivered exactly once across all sinks, so a merged result is
// deterministic whatever the scheduling.  Sinks needing a global
// order (checkpoint prefix cuts, live progress over the frontier)
// must stay on ShardsCompiledStream.
func ShardsCompiledUnordered(ctx context.Context, p *Program, src fault.Source, cfg StreamConfig, sinkFor func(worker int) ChunkSink) (int, int, error) {
	return shardsCompiled(ctx, p, src, cfg, sinkFor, false)
}

func shardsCompiled(ctx context.Context, p *Program, src fault.Source, cfg StreamConfig, sinkFor func(worker int) ChunkSink, serialize bool) (int, int, error) {
	arenas := cfg.Arenas
	return streamShard(ctx, src, cfg, p.BatchFaults(), func() (func([]fault.Fault, []uint64) error, func()) {
		a := arenas.Get(p)
		return func(batch []fault.Fault, det []uint64) error {
			return p.ReplayInto(a, batch, det)
		}, func() { arenas.Put(a) }
	}, sinkFor, serialize)
}

// streamShard is the shared driver; batchFaults is the machines per
// replay pass (the replay function's det buffer gets one word per 64,
// rounded up).  sinkFor builds worker w's sink once at worker startup;
// with serialize the calls across all workers are additionally
// interlocked behind one mutex (the ordered ChunkSink contract),
// without it each worker calls its own sink lock-free (the unordered
// path).
//
//faultsim:hotpath
func streamShard(ctx context.Context, src fault.Source, cfg StreamConfig, batchFaults int,
	newWorker func() (func([]fault.Fault, []uint64) error, func()),
	sinkFor func(worker int) ChunkSink, serialize bool) (int, int, error) {
	workers, chunk := cfg.sizes(src, batchFaults)
	drop := cfg.Drop
	ctxDone := ctx.Done()
	var (
		srcMu     sync.Mutex
		base      = cfg.Base
		exhausted bool
		sinkMu    sync.Mutex
		stop      atomic.Bool
		reps      atomic.Int64
	)
	// pull claims the next chunk (its universe base index and length)
	// under the source lock; ok is false once the stream is drained.
	pull := func(buf []fault.Fault) (b, n int, ok bool) { //faultsim:alloc-ok one closure per streamShard call
		srcMu.Lock()
		defer srcMu.Unlock() //faultsim:alloc-ok open-coded defer, once per chunk claim, not per fault
		if exhausted {
			return 0, 0, false
		}
		n, more := src.Next(buf)
		b = base
		base += n
		if !more {
			exhausted = true
		}
		return b, n, true
	}
	errs := make([]error, workers) //faultsim:alloc-ok one slot per worker at startup
	reg := telemetry.Active()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { //faultsim:alloc-ok worker startup: one goroutine and closure per worker
			defer wg.Done() //faultsim:alloc-ok worker-lifetime defer
			sink := sinkFor(w)
			replay, done := newWorker()
			if done != nil {
				defer done() //faultsim:alloc-ok worker-lifetime defer
			}
			buf := make([]fault.Fault, chunk)                           //faultsim:alloc-ok per-worker chunk buffer, reused for every chunk
			idx := make([]int, chunk)                                   //faultsim:alloc-ok per-worker chunk buffer, reused for every chunk
			det := make([]bool, chunk)                                  //faultsim:alloc-ok per-worker chunk buffer, reused for every chunk
			mask := make([]uint64, (batchFaults+BatchSize-1)/BatchSize) //faultsim:alloc-ok per-worker detection mask, reused for every batch
			// Telemetry: worker-local counters, flushed into the padded
			// per-worker slot once per chunk.  The source-claim and
			// sink-acquire waits are timed separately from the kernel so a
			// scaling run can see exactly where a worker's wall time goes.
			var tw *telemetry.Worker
			var tl telemetry.Local
			if reg != nil {
				tw = reg.Worker(w)
			}
			for !stop.Load() {
				// Cooperative cancellation, checked once per chunk claim: an
				// in-flight chunk is abandoned before its sink delivery, so
				// the universe prefix the sink has seen stays consistent.
				select {
				case <-ctxDone:
					reg.Flush(tw, &tl)
					return
				default:
				}
				var t0 time.Time
				if tw != nil {
					t0 = time.Now()
				}
				b, n, ok := pull(buf)
				if tw != nil {
					tl.SourceWaitNanos += uint64(time.Since(t0))
				}
				if !ok {
					reg.Flush(tw, &tl)
					return
				}
				faults := buf[:n]
				ids := idx[:0]
				if drop != nil {
					kept := faults[:0]
					for i, f := range faults {
						if !drop.Get(b + i) {
							kept = append(kept, f)
							ids = append(ids, b+i)
						}
					}
					faults = kept
				} else {
					for i := range faults {
						ids = append(ids, b+i)
					}
				}
				reps.Add(int64(len(faults)))
				d := det[:len(faults)]
				failed := false
				if tw != nil {
					t0 = time.Now()
				}
				for lo := 0; lo < len(faults); lo += batchFaults {
					select {
					case <-ctxDone:
						// Abandon the chunk mid-replay: none of its verdicts
						// reach the sink, so cancellation costs at most one
						// batch of latency and never a torn chunk.
						reg.Flush(tw, &tl)
						return
					default:
					}
					hi := lo + batchFaults
					if hi > len(faults) {
						hi = len(faults)
					}
					err := replay(faults[lo:hi], mask)
					if err != nil {
						errs[w] = err
						stop.Store(true)
						failed = true
						break
					}
					for i := lo; i < hi; i++ {
						j := i - lo
						d[i] = mask[j>>6]>>(uint(j)&63)&1 == 1
					}
				}
				if tw != nil {
					tl.KernelNanos += uint64(time.Since(t0))
					tl.Batches += uint64((len(faults) + batchFaults - 1) / batchFaults)
					tl.Reps += uint64(len(faults))
				}
				if failed {
					reg.Flush(tw, &tl)
					return
				}
				if serialize {
					if tw != nil {
						t0 = time.Now()
					}
					sinkMu.Lock()
					if tw != nil {
						tl.SinkWaitNanos += uint64(time.Since(t0))
						t0 = time.Now()
					}
					sink(b, n, ids, faults, d)
					sinkMu.Unlock()
				} else {
					// Unordered delivery: worker-private sink, no lock, no
					// wait — sink-wait time is identically zero by design.
					if tw != nil {
						t0 = time.Now()
					}
					sink(b, n, ids, faults, d)
				}
				if tw != nil {
					tl.SinkNanos += uint64(time.Since(t0))
					tl.Chunks++
					tl.Faults += uint64(len(faults))
					reg.ObserveIndex(int64(b + n))
					reg.Flush(tw, &tl)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return workers, int(reps.Load()), err
		}
	}
	if err := ctx.Err(); err != nil {
		return workers, int(reps.Load()), err
	}
	return workers, int(reps.Load()), nil
}
