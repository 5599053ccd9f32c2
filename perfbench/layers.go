package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/sim"
)

// This file holds the traced run's layer probes: each times one
// layer's public calls from outside, on the workload's own inputs, on
// the benchmark's goroutine.  Collapse has no timer inside the engine
// (EngineStats cannot see it), so the probe's collapse span is its only
// measurement.

// metrics maps a per-layer metric name to its value.
type metrics map[string]float64

const (
	probePasses  = 3     // record/compile/arena and source passes; the median pass is reported
	kernelSample = 16384 // representatives replayed per runner on materialized universes
	prtCells     = 4096  // prt.iteration probe: PaperWOMConfig on a 4096×4 WOM
)

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// probePrograms records, compiles and builds an arena for every
// replayable runner (runner i on memory mems[i]), probePasses times,
// and reports the median pass's seconds per layer plus the programs'
// instruction counts.  It returns the last pass's programs,
// index-aligned with runners (nil where a runner is not replayable).
func probePrograms(tr *tracer, parent int, runners []coverage.Runner, mems []coverage.MemoryFactory, m metrics) ([]*sim.Program, error) {
	var rec, comp, arena []float64
	var progs []*sim.Program
	for pass := 0; pass < probePasses; pass++ {
		progs = make([]*sim.Program, len(runners))
		one := make(metrics)
		for i, r := range runners {
			p, err := probeOnce(tr, parent, r, mems[i], one)
			if err != nil {
				return nil, err
			}
			progs[i] = p
		}
		rec = append(rec, one["sim.record_s"])
		comp = append(comp, one["sim.compile_s"])
		arena = append(arena, one["sim.arena.new_s"])
		for _, k := range []string{"sim.program_ops", "sim.fused_ops", "sim.trimmed_ops"} {
			m[k] = one[k]
		}
	}
	m["sim.record_s"] = median(rec)
	m["sim.compile_s"] = median(comp)
	m["sim.arena.new_s"] = median(arena)
	return progs, nil
}

// planMemories repeats the plan's memory factory once per runner.
func planMemories(p coverage.Plan) []coverage.MemoryFactory {
	mems := make([]coverage.MemoryFactory, len(p.Runners))
	for i := range mems {
		mems[i] = p.Memory
	}
	return mems
}

// replay runs the representatives through the program's kernel in
// BatchFaults-sized batches on one arena and one goroutine, writing
// each representative's verdict into det.
func replay(p *sim.Program, a *sim.Arena, reps []fault.Fault, det []bool, mask []uint64) error {
	bf := p.BatchFaults()
	for lo := 0; lo < len(reps); lo += bf {
		hi := min(lo+bf, len(reps))
		if err := p.ReplayInto(a, reps[lo:hi], mask); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			j := i - lo
			det[i] = mask[j>>6]>>(uint(j)&63)&1 == 1
		}
	}
	return nil
}

// probeStream measures a streaming plan's layers: a source-only pass
// at the plan's chunk size, then per runner a chunked pass that
// collapses each chunk, replays its representatives and expands the
// verdicts, as the streaming driver does on one worker.
func probeStream(tr *tracer, p coverage.Plan, m metrics) error {
	root := tr.begin("probe.stream", 0)
	defer tr.end(root)
	src := p.Stream.Source
	chunk := p.Chunk
	if chunk <= 0 {
		chunk = coverage.DefaultChunk()
	}
	buf := make([]fault.Fault, chunk)

	var nsPer []float64
	var ms0, ms1 runtime.MemStats
	for pass := 0; pass < probePasses; pass++ {
		src.Reset()
		runtime.ReadMemStats(&ms0)
		id := tr.begin("fault.source.next", root)
		n := 0
		for {
			k, more := src.Next(buf)
			n += k
			if !more {
				break
			}
		}
		d := tr.end(id)
		runtime.ReadMemStats(&ms1)
		nsPer = append(nsPer, float64(d.Nanoseconds())/float64(n))
		m["fault.source.allocs_per_fault"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}
	m["fault.source.ns_per_fault"] = median(nsPer)

	progs, err := probePrograms(tr, root, p.Runners, planMemories(p), m)
	if err != nil {
		return err
	}
	var collapse, kernel time.Duration
	var in, reps int
	det := make([]bool, chunk)
	repDet := make([]bool, chunk)
	for i, prog := range progs {
		if prog == nil {
			continue
		}
		rid := tr.begin("probe.runner:"+p.Runners[i].Name(), root)
		sum := prog.Summary()
		a := sim.NewArena(prog)
		mask := make([]uint64, prog.LaneWords())
		src.Reset()
		for more := true; more; {
			id := tr.begin("fault.source.next", rid)
			var k int
			k, more = src.Next(buf)
			tr.end(id)
			faults := buf[:k]
			id = tr.begin("fault.collapse", rid)
			col := fault.Collapse(faults, &sum)
			collapse += tr.end(id)
			id = tr.begin("sim.kernel", rid)
			err := replay(prog, a, col.Reps, repDet, mask)
			kernel += tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("fault.expand", rid)
			col.ExpandInto(det[:k], repDet)
			collapse += tr.end(id)
			in += k
			reps += len(col.Reps)
		}
		tr.end(rid)
	}
	m["fault.collapse.ns_per_fault"] = float64(collapse.Nanoseconds()) / float64(in)
	m["fault.collapse.ratio"] = float64(reps) / float64(in)
	m["sim.kernel.ns_per_fault"] = float64(kernel.Nanoseconds()) / float64(reps)
	return nil
}

// probeMaterialized measures a materialized plan's layers: per runner,
// collapse of the whole universe view (the first stage's input) with
// expansion, and the kernel on an evenly strided sample of the
// representatives.  The universe was built in set-up, so there is no
// source layer in this workload's loop.
func probeMaterialized(tr *tracer, p coverage.Plan, m metrics) error {
	root := tr.begin("probe.materialized", 0)
	defer tr.end(root)
	progs, err := probePrograms(tr, root, p.Runners, planMemories(p), m)
	if err != nil {
		return err
	}
	view := fault.Span(p.Universe.Faults)
	det := make([]bool, view.Len())
	var collapse, kernel time.Duration
	var in, reps, replayed int
	for i, prog := range progs {
		if prog == nil {
			continue
		}
		rid := tr.begin("probe.runner:"+p.Runners[i].Name(), root)
		sum := prog.Summary()
		id := tr.begin("fault.collapse", rid)
		col := fault.CollapseView(view, &sum)
		collapse += tr.end(id)
		stride := (len(col.Reps) + kernelSample - 1) / kernelSample
		sample := make([]fault.Fault, 0, kernelSample)
		for j := 0; j < len(col.Reps); j += stride {
			sample = append(sample, col.Reps[j])
		}
		repDet := make([]bool, len(col.Reps))
		a := sim.NewArena(prog)
		mask := make([]uint64, prog.LaneWords())
		id = tr.begin("sim.kernel", rid)
		err := replay(prog, a, sample, repDet[:len(sample)], mask)
		kernel += tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("fault.expand", rid)
		col.ExpandInto(det, repDet)
		collapse += tr.end(id)
		in += view.Len()
		reps += len(col.Reps)
		replayed += len(sample)
		tr.end(rid)
	}
	m["fault.collapse.ns_per_fault"] = float64(collapse.Nanoseconds()) / float64(in)
	m["fault.collapse.ratio"] = float64(reps) / float64(in)
	m["sim.kernel.ns_per_fault"] = float64(kernel.Nanoseconds()) / float64(replayed)
	return nil
}

// probePaperTables measures the catalogue's fixed per-campaign costs:
// record, compile and arena creation for the runners of every
// multi-runner session one pass runs (observed through the session
// hook in a discovery pass), and one PRT iteration outside the engine.
func probePaperTables(tr *tracer, inst *instance, m metrics) error {
	root := tr.begin("probe.paper-tables", 0)
	defer tr.end(root)
	var plans []coverage.Plan
	coverage.SetSessionObserver(func(p *coverage.Plan, _ *coverage.Session) { plans = append(plans, *p) })
	_, err := inst.campaign(nil, 0)
	coverage.SetSessionObserver(nil)
	if err != nil {
		return err
	}

	var runners []coverage.Runner
	var mems []coverage.MemoryFactory
	for _, p := range plans {
		for _, r := range p.Runners {
			runners = append(runners, r)
			mems = append(mems, p.Memory)
		}
	}
	if _, err := probePrograms(tr, root, runners, mems, m); err != nil {
		return err
	}

	var ns []float64
	cfg := prt.PaperWOMConfig()
	for pass := 0; pass < 2*probePasses+1; pass++ {
		mem := ram.NewWOM(prtCells, 4)
		id := tr.begin("prt.iteration", root)
		prt.MustRunIteration(cfg, mem)
		ns = append(ns, float64(tr.end(id).Nanoseconds())/prtCells)
	}
	m["prt.iteration_ns_per_cell"] = median(ns)
	return nil
}

// probeOnce is one record/compile/arena pass over a single runner.
func probeOnce(tr *tracer, parent int, r coverage.Runner, mk coverage.MemoryFactory, m metrics) (*sim.Program, error) {
	if _, ok := r.(coverage.ReplaySafe); !ok {
		return nil, nil
	}
	id := tr.begin("sim.record", parent)
	trc, cleanDetected, _ := sim.Record(mk(), r.Run)
	m["sim.record_s"] += tr.end(id).Seconds()
	if cleanDetected || !trc.Replayable() {
		return nil, nil
	}
	id = tr.begin("sim.compile", parent)
	prog, err := sim.Compile(trc, coverage.DefaultLaneWords())
	m["sim.compile_s"] += tr.end(id).Seconds()
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", r.Name(), err)
	}
	id = tr.begin("sim.arena.new", parent)
	sim.NewArena(prog)
	m["sim.arena.new_s"] += tr.end(id).Seconds()
	m["sim.program_ops"] += float64(prog.Ops())
	m["sim.fused_ops"] += float64(prog.FusedOps())
	m["sim.trimmed_ops"] += float64(prog.TrimmedOps())
	return prog, nil
}
