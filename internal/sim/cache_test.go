package sim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/ram"
)

// compilePrograms builds the regression set of compiled programs with
// deliberately different shapes: width-1 vs width-4, with and without
// read-history rings (affine recurrence writes), with and without
// fold-accumulator state, and different sizes.
func shapePrograms(t *testing.T) []*Program {
	t.Helper()
	traces := []*Trace{
		recordMarch(t, march.MarchCMinus(), 24), // width 1, no history, no observers
		recordWOM(t, march.MarchB(), 16, 4),     // width 4
		recordPRT(t, 17, 4),                     // width 4, history ring (affine writes)
		recordObserver(t, 24, 1),                // width 1, 1-bit fold accumulator
		recordObserver(t, 12, 4),                // width 4, 4-bit fold accumulator
	}
	progs := make([]*Program, len(traces))
	for i, tr := range traces {
		p, err := Compile(tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	return progs
}

// TestArenaRetargetAcrossProgramShapes is the cross-program reuse
// regression: one arena retargeted across compiled programs of
// different shapes (widths, fold-accumulator counts, history lengths,
// sizes) must reproduce the detection mask of a fresh arena for every
// program — in both directions of every program pair, so neither
// growing nor shrinking any buffer leaks state.
func TestArenaRetargetAcrossProgramShapes(t *testing.T) {
	progs := shapePrograms(t)
	batchFor := func(p *Program) []fault.Fault {
		u := fault.StandardUniverse(p.Size(), p.Width(), 4, 21).Faults
		if len(u) > BatchSize {
			u = u[:BatchSize]
		}
		return u
	}
	want := make([]uint64, len(progs))
	for i, p := range progs {
		m, err := p.Replay(NewArena(p), batchFor(p))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	for i := range progs {
		for j := range progs {
			if i == j {
				continue
			}
			shared := NewArena(progs[i])
			if _, err := progs[i].Replay(shared, batchFor(progs[i])); err != nil {
				t.Fatal(err)
			}
			shared.Retarget(progs[j])
			got, err := progs[j].Replay(shared, batchFor(progs[j]))
			if err != nil {
				t.Fatal(err)
			}
			if got != want[j] {
				t.Errorf("programs %d→%d: retargeted arena mask %064b, fresh %064b", i, j, got, want[j])
			}
			// And back again: shrink/regrow must be just as clean.
			shared.Retarget(progs[i])
			back, err := progs[i].Replay(shared, batchFor(progs[i]))
			if err != nil {
				t.Fatal(err)
			}
			if back != want[i] {
				t.Errorf("programs %d→%d→%d: round-trip mask %064b, fresh %064b", i, j, i, back, want[i])
			}
		}
	}
}

// TestReplayRejectsForeignArena: an arena must be explicitly
// retargeted before replaying a different program.
func TestReplayRejectsForeignArena(t *testing.T) {
	progs := shapePrograms(t)
	a := NewArena(progs[0])
	if _, err := progs[1].Replay(a, []fault.Fault{fault.SAF{Cell: 0, Value: 1}}); err == nil {
		t.Fatal("replay through a foreign arena must error")
	}
}

// TestArenaPoolRetargets: pooled arenas come back bound to the
// requested program, whatever they last ran.
func TestArenaPoolRetargets(t *testing.T) {
	progs := shapePrograms(t)
	var pool ArenaPool
	a := pool.Get(progs[0])
	pool.Put(a)
	b := pool.Get(progs[2])
	if b != a {
		t.Fatal("pool did not recycle the arena")
	}
	if _, err := progs[2].Replay(b, []fault.Fault{fault.SAF{Cell: 0, Value: 1}}); err != nil {
		t.Fatalf("pooled arena not retargeted: %v", err)
	}
	// A nil pool stays functional and simply builds fresh arenas.
	var np *ArenaPool
	c := np.Get(progs[1])
	if _, err := progs[1].Replay(c, []fault.Fault{fault.SAF{Cell: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	np.Put(c)
}

// TestShardsViewMatchesFullRun: a Drop-filtered stream must deliver
// exactly the kept universe indices, each with the full run's verdict
// at that index — for the interpreter and the compiled engine (pooled
// and unpooled).
func TestShardsViewMatchesFullRun(t *testing.T) {
	const n = 48
	tr := recordMarch(t, march.MATSPlus(), n) // imperfect coverage: mixed verdicts
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 8, 17).Faults
	ctx := context.Background()
	full := replayRef(t, p, faults)
	// A ragged subset crossing batch boundaries.
	drop := fault.NewBitSet(len(faults))
	kept := 0
	for i := range faults {
		if i%3 == 1 {
			drop.Set(i)
		} else {
			kept++
		}
	}
	var pool ArenaPool
	for name, run := range map[string]func(fault.Source, ChunkSink) (int, int, error){
		"bitpar": func(src fault.Source, sink ChunkSink) (int, int, error) {
			return ShardsStream(ctx, tr, src, StreamConfig{Workers: 3, Drop: drop}, sink)
		},
		"compiled": func(src fault.Source, sink ChunkSink) (int, int, error) {
			return ShardsCompiledStream(ctx, p, src, StreamConfig{Workers: 3, Drop: drop}, sink)
		},
		"compiled+pool": func(src fault.Source, sink ChunkSink) (int, int, error) {
			return ShardsCompiledStream(ctx, p, src, StreamConfig{Workers: 3, Drop: drop, Arenas: &pool}, sink)
		},
	} {
		cs := newCollectSink()
		if _, _, err := run(fault.SliceSource(faults), cs.sink); err != nil {
			t.Fatal(err)
		}
		if cs.seen != kept {
			t.Fatalf("%s: %d verdicts for %d kept faults", name, cs.seen, kept)
		}
		for u, d := range cs.det {
			if drop.Get(u) {
				t.Fatalf("%s: dropped fault %d was delivered", name, u)
			}
			if d != full[u] {
				t.Errorf("%s: universe fault %d = %v, full run says %v", name, u, d, full[u])
			}
		}
	}
}

// TestProgramCacheRoundTrip covers hit/miss accounting and the
// init-hash discrimination of the key.
func TestProgramCacheRoundTrip(t *testing.T) {
	tr := recordMarch(t, march.MarchCMinus(), 16)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewProgramCache()
	k := ProgramKey{Runner: "march:{...}", Size: 16, Width: 1, InitHash: InitHash(ram.NewBOM(16))}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, &CachedProgram{Prog: p, CleanOps: 160})
	e, ok := c.Get(k)
	if !ok || e.Prog != p || e.CleanOps != 160 {
		t.Fatalf("cache round-trip lost the entry: %+v ok=%v", e, ok)
	}
	hits, misses, entries := c.Stats()
	if hits != 1 || misses != 1 || entries != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/1/1", hits, misses, entries)
	}
	// A different initial image is a different key.
	dirty := ram.NewBOM(16)
	dirty.Write(3, 1)
	k2 := k
	k2.InitHash = InitHash(dirty)
	if k2 == k {
		t.Fatal("init hash failed to distinguish memory images")
	}
	if _, ok := c.Get(k2); ok {
		t.Fatal("differing init image must miss")
	}
	// A nil cache is inert.
	var nc *ProgramCache
	if _, ok := nc.Get(k); ok {
		t.Fatal("nil cache hit")
	}
	nc.Put(k, e)
}

// TestProgramCacheBounded: the cache evicts rather than grow without
// bound.
func TestProgramCacheBounded(t *testing.T) {
	tr := recordMarch(t, march.MarchCMinus(), 8)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewProgramCache()
	for i := 0; i < 4*cacheCap; i++ {
		c.Put(ProgramKey{Runner: "r", Size: i}, &CachedProgram{Prog: p})
	}
	if _, _, entries := c.Stats(); entries > cacheCap {
		t.Fatalf("cache grew to %d entries (cap %d)", entries, cacheCap)
	}
}
