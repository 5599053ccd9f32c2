// Package sim is the bit-parallel fault-simulation engine behind the
// coverage campaigns: a PPSFP-style simulator that packs 64 faulty
// machines into every uint64 word and replays a recorded test trace
// over all of them at once, instead of re-executing the full test
// algorithm once per injected fault.
//
// The pipeline has three stages:
//
//  1. Trace recording (Recorder, Record): the test algorithm runs once
//     on an instrumented fault-free memory and its operation stream is
//     captured — (op, addr, data) plus three annotations supplied by
//     the executors via ram.TraceAnnotator: which reads the algorithm
//     compares against fault-free expectations ("checked" reads), how
//     recurrence writes derive from preceding reads (the π-test's
//     GF(2)-affine map, so replay preserves error propagation through
//     the walking automaton), and which reads fold into a signature
//     observer (a MISR/SISR's GF(2)-linear accumulator, with compare
//     points where the algorithm tests the register against its
//     prediction).
//
//  2. Bit-sliced replay (Array, ReplayBatch): each cell-bit of the
//     memory becomes a uint64 lane word holding that bit's value
//     across 64 simultaneously simulated machines.  Faults are
//     installed through the fault.BatchInjector capability as
//     per-machine masked hooks that reproduce the Inject decorator
//     wrappers exactly.  A machine is detected as soon as one of its
//     checked reads diverges from the recorded clean value, or an
//     observer compare point finds its accumulated signature
//     difference nonzero — the same criteria the oracle's comparators
//     apply, since every expected value (and predicted signature) a
//     well-formed algorithm checks equals the clean-run value.
//     Because the fold is affine, the faulty-minus-clean accumulator
//     difference evolves linearly in the read differences, so replay
//     reproduces MISR aliasing bit-exactly: multi-error patterns that
//     cancel in the register stay undetected, as in hardware.  A batch
//     finishes early once all of its machines have detected.
//
//  3. The replay driver (stream.go): workers claim chunks of the
//     fault universe from a fault.Source, replay them as 64-machine
//     batches and hand each chunk's verdicts, keyed by universe index,
//     to a sink — so results are deterministic regardless of worker
//     count.  A materialized universe is a fault.SliceSource.
//
// On top of the per-batch interpreter sits the compiled pipeline, the
// production fast path:
//
//   - Compile lowers the trace once per campaign into a flat
//     instruction stream with pre-resolved lane offsets, broadcast-
//     expanded clean values, flattened affine terms, fold/observe side
//     tables with deduplicated GF(2) matrices, and the suffix after
//     the last detection point trimmed (nothing past the final
//     comparison can affect detection).  Clean values are interned:
//     the lane pool holds one broadcast block per distinct word value
//     (at most 2^width), which every instruction using that value
//     shares.  Compile also checks every affine annotation: Offset ⊕
//     Σ M·(recorded clean reads) must equal the recorded write, or it
//     fails naming the op and the cell.  Width-1 traces additionally
//     pack each op into a single uint32.
//
//   - Arena is a worker's reusable machine-array state: lane buffer,
//     hook tables (two flat slabs laid out once per batch, one span
//     per hooked cell and lane group, with a one-byte per-cell flag map
//     the kernels test instead of spans), history ring, observer
//     accumulators, scratch, and a fault.Pool recycling hook objects.
//     Between batches it restores only the cells the previous batch
//     dirtied (or wholesale for dense traces), so steady-state batches
//     allocate nothing — across Retarget too, so one arena serves
//     every stage of a session.
//
//   - LaneWordsFor picks a campaign's lane width from its size: the
//     widest of 8, 4 and 1 words at which every worker still gets
//     enough full batches.
//
//   - Replay dispatches to a width-1 kernel (no per-bit inner loops;
//     the regime of the paper's Fig. 1a bit-oriented memories and the
//     largest campaigns) or the generic word-oriented kernel.
//
//   - Quiet-batch replay (word-oriented kernels): PRT emulates a
//     linear automaton, so a faulty machine's recurrence writes and
//     signature state differ from the clean run only through its read
//     errors.  The word kernels keep each read's error (sensed XOR
//     clean) in the history ring with one loud flag per slot, start
//     every recurrence write from its recorded clean value and add
//     only the terms of loud reads, skip a fold of a zero error into
//     an accumulator that is still zero, and skip the compare point of
//     such an accumulator (one live flag per observer).  While no
//     lane of a batch reads a value different from the clean run —
//     as for every survivor entering a BIST stage that detects
//     nothing — that work costs one flag test per term.  The width-1
//     kernels keep sensed values and recompute writes from the
//     affine offset, as before.
//
//   - ShardsCompiledStream drives the batches with one arena per
//     worker and a shared stop flag so a failing batch short-circuits
//     the rest.
//
// Campaigns over a materialized universe can additionally collapse it
// into exact equivalence classes (fault.Collapse, fed by
// Program.Summary) and simulate one representative per class; package
// coverage expands the results back so every experiment table is
// unchanged.  Streamed universes are not collapsed (see below).
//
// Three capabilities serve the campaign *session* layer (package
// coverage's planner/executor, which runs several tests over one
// universe with cross-test fault dropping):
//
//   - survivor replay: StreamConfig.Drop filters each claimed chunk
//     against a dropped-fault bitmap (fault.BitSet), and a
//     materialized session streams the dense survivor (or
//     representative) slice, so the survivors of test k are the only
//     faults replayed against test k+1;
//
//   - a compiled-program cache (ProgramCache) keyed by (runner
//     identity, memory geometry, initial-image hash), so repeated
//     sweeps record and compile each trace once; programs are
//     immutable after compilation and shared freely across campaigns;
//
//   - arena reuse across programs: Arena.Retarget rebinds a worker's
//     arena to a different program (any width, size, observer or
//     history shape) with a full state reset, and ArenaPool recycles
//     arenas between a session's stages.
//
// The drivers (ShardsStream, ShardsCompiledStream, StreamShard) pull
// the fault universe from a fault.Source in fixed-size chunks, so a
// streamed campaign's resident fault storage is O(chunk × workers) —
// the universe size stops being a memory bound (the regime of
// exhaustive multi-million-fault coupling universes, experiment E17).
// Each worker owns one reusable chunk buffer plus its arena; chunks
// are claimed under a source mutex, optionally filtered against a
// dropped-fault bitmap (fault.BitSet — the session layer's cross-test
// dropping), replayed as 64-machine batches, and the verdicts
// delivered to a serialized per-chunk sink keyed by universe index —
// so order-insensitive sinks (tallies, bitmaps) observe deterministic
// results whatever the chunk scheduling, and order-sensitive ones (the
// checkpoint layer's contiguous-cut tracker) can reorder on the
// delivered [base, base+n) keys.  Chunks are not collapsed: the
// exhaustive families streamed here hold almost no equivalent faults
// within a chunk, so a collapse pass would cost more than it saves.
// When the source's Count is exact, the chunk is also capped so every
// worker gets at least 16 chunks (in whole replay batches): a small
// materialized stage still spreads across the pool, and no worker runs
// long alone at the end of a stage.  StreamShard exposes the same loop
// over a caller-supplied replay function and claim granule (package
// coverage's oracle, one fault per claim).
//
// The streaming drivers offer two sink disciplines.  The serialized
// path (ShardsStream, ShardsCompiledStream, StreamShard) delivers
// every chunk under one sink mutex — required whenever the sink is
// order-sensitive across workers, e.g. the checkpoint layer's
// contiguous prefix cut — and its per-worker lock-wait time is what
// telemetry reports as sink-wait shares.  ShardsCompiledUnordered
// instead gives each worker its own sink (a caller-supplied factory),
// so workers fold verdicts into private accumulators — detection
// bitmap words, class tallies — with no lock at all, and the caller
// merges the accumulators once after the drivers drain.  Because
// chunk index ranges are disjoint and the folds are sums and bit-ORs,
// the merged result is byte-identical to the serialized path's; the
// session layer picks the discipline per plan (checkpoint or live
// progress frontier ⇒ serialized, else unordered).
//
// All drivers take a context.Context and cancel cooperatively at
// batch/chunk granularity: the check is one non-blocking channel
// receive per claim and per batch (free against context.Background's
// nil Done channel, never inside the replay kernel), cancelled
// workers abandon the interrupted chunk before its sink delivery
// (sinks only ever see complete chunks), and the driver returns
// ctx.Err() — callers separate interruption from replay failure with
// errors.Is.  StreamConfig.Base offsets delivered universe
// indices for checkpoint resume: the source is Skip()ed past the
// completed prefix and Base set to the skip count.
//
// The engine is exact, not approximate: package coverage cross-checks
// all of it against the per-fault oracle path, and the equivalence
// property tests assert identical per-class results over full fault
// universes, for both kernels, with collapsing of materialized
// universes on and off — including signature-compressed (MISR/BIST)
// runners, whose aliasing the observer path models bit-exactly.  Runners opt in via
// coverage.ReplaySafe; anything else (un-annotated adaptive stimuli)
// stays on the oracle.
package sim
