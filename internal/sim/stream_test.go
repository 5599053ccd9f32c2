package sim

import (
	"context"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
)

// collectSink gathers chunk verdicts back into universe order so the
// streaming drivers can be compared position for position against the
// per-batch reference.
type collectSink struct {
	det  map[int]bool
	seen int
}

func newCollectSink() *collectSink { return &collectSink{det: make(map[int]bool)} }

func (c *collectSink) sink(_, _ int, idx []int, faults []fault.Fault, det []bool) {
	for i := range idx {
		if _, dup := c.det[idx[i]]; dup {
			panic("universe index delivered twice")
		}
		c.det[idx[i]] = det[i]
		c.seen++
	}
}

func (c *collectSink) indices() []int {
	out := make([]int, 0, len(c.det))
	for i := range c.det {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// replayRef is the per-batch reference verdict vector: a width-1
// program replayed (Program.Replay) over consecutive 64-fault batches
// of the slice on one arena, no driver involved.
func replayRef(t *testing.T, p *Program, faults []fault.Fault) []bool {
	t.Helper()
	a := NewArena(p)
	det := make([]bool, len(faults))
	for lo := 0; lo < len(faults); lo += BatchSize {
		hi := min(lo+BatchSize, len(faults))
		mask, err := p.Replay(a, faults[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			det[i] = mask>>uint(i-lo)&1 == 1
		}
	}
	return det
}

// streamed drives a slice source through run and returns the verdicts
// in universe order, failing unless every index arrived exactly once.
func streamed(t *testing.T, faults []fault.Fault, run func(fault.Source, ChunkSink) (int, int, error)) []bool {
	t.Helper()
	cs := newCollectSink()
	if _, _, err := run(fault.SliceSource(faults), cs.sink); err != nil {
		t.Fatal(err)
	}
	if cs.seen != len(faults) {
		t.Fatalf("%d verdicts, want %d", cs.seen, len(faults))
	}
	det := make([]bool, len(faults))
	for i, d := range cs.det {
		det[i] = d
	}
	return det
}

// An exact-count input of three replay batches on two workers and the
// default chunk must still be split across both workers (the chunk is
// capped by the input, not only by DefaultChunk), and every universe
// index must be delivered exactly once.
func TestStreamSmallInputKeepsWorkers(t *testing.T) {
	const n = 48
	tr := recordMarch(t, march.MarchCMinus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.SingleCellUniverse(n, 1) // 192 faults = 3 batches
	cs := newCollectSink()
	w, reps, err := ShardsCompiledStream(context.Background(), p, fault.SliceSource(faults),
		StreamConfig{Workers: 2}, cs.sink)
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Errorf("Workers = %d, want 2 for 3 batches", w)
	}
	if cs.seen != len(faults) || reps != len(faults) {
		t.Fatalf("delivered %d, simulated %d, want %d", cs.seen, reps, len(faults))
	}
	for i, u := range cs.indices() {
		if u != i {
			t.Fatalf("index %d missing from the delivered set", i)
		}
	}
}

func TestStreamDriversMatchShardDrivers(t *testing.T) {
	const n = 33
	tr := recordMarch(t, march.MarchCMinus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 6, 9).Faults
	ctx := context.Background()
	wantDet := replayRef(t, p, faults)
	for _, chunk := range []int{1, 7, 100, 4096} {
		cs := newCollectSink()
		_, reps, err := ShardsCompiledStream(ctx, p, fault.SliceSource(faults),
			StreamConfig{Chunk: chunk, Workers: 3}, cs.sink)
		if err != nil {
			t.Fatal(err)
		}
		if cs.seen != len(faults) {
			t.Fatalf("chunk=%d: %d verdicts, want %d", chunk, cs.seen, len(faults))
		}
		// Streams are never collapsed: every presented fault is replayed.
		if reps != len(faults) {
			t.Errorf("chunk=%d: simulated %d faults, want %d", chunk, reps, len(faults))
		}
		for i := range faults {
			if cs.det[i] != wantDet[i] {
				t.Fatalf("chunk=%d fault %d: stream %v, shard %v", chunk, i, cs.det[i], wantDet[i])
			}
		}
		// The interpreter path agrees too.
		cs = newCollectSink()
		if _, _, err := ShardsStream(ctx, tr, fault.SliceSource(faults),
			StreamConfig{Chunk: chunk, Workers: 3}, cs.sink); err != nil {
			t.Fatal(err)
		}
		for i := range faults {
			if cs.det[i] != wantDet[i] {
				t.Fatalf("bitpar chunk=%d fault %d: stream %v, shard %v", chunk, i, cs.det[i], wantDet[i])
			}
		}
	}
}

func TestStreamDropFilter(t *testing.T) {
	const n = 17
	tr := recordMarch(t, march.MATSPlus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.SingleCellUniverse(n, 1)
	drop := fault.NewBitSet(len(faults))
	for i := range faults {
		if i%3 == 0 {
			drop.Set(i)
		}
	}
	cs := newCollectSink()
	if _, _, err := ShardsCompiledStream(context.Background(), p, fault.SliceSource(faults),
		StreamConfig{Chunk: 5, Workers: 2, Drop: drop}, cs.sink); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range faults {
		if i%3 != 0 {
			want++
		}
	}
	if cs.seen != want {
		t.Fatalf("presented %d faults, want %d", cs.seen, want)
	}
	for _, i := range cs.indices() {
		if i%3 == 0 {
			t.Fatalf("dropped fault %d was presented", i)
		}
	}
	// Verdicts of the survivors equal the full replay's.
	full := replayRef(t, p, faults)
	for i, d := range cs.det {
		if d != full[i] {
			t.Fatalf("fault %d: filtered verdict %v, full %v", i, d, full[i])
		}
	}
}

// failInjector is a fault that refuses batch injection, forcing the
// replay error path.
type failInjector struct{ fault.Fault }

func TestStreamErrorStops(t *testing.T) {
	const n = 16
	tr := recordMarch(t, march.MATSPlus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.SingleCellUniverse(n, 1)
	faults[37] = failInjector{faults[37]} // strips the BatchInjector capability
	ctx := context.Background()
	cfg := StreamConfig{Chunk: 8, Workers: 2}
	cs := newCollectSink()
	_, _, err = ShardsCompiledStream(ctx, p, fault.SliceSource(faults), cfg, cs.sink)
	if err == nil {
		t.Fatal("driver swallowed a batch-injection error")
	}
	var discard ChunkSink = func(int, int, []int, []fault.Fault, []bool) {}
	if _, _, err := ShardsStream(ctx, tr, fault.SliceSource(faults), cfg, discard); err == nil {
		t.Fatal("interpreter driver swallowed a batch-injection error")
	}
	// A trace with no detection points is rejected like the
	// materialized drivers reject it.
	if _, _, err := ShardsStream(ctx, &Trace{Size: n, Width: 1}, fault.SliceSource(faults[:1]),
		StreamConfig{Chunk: 8, Workers: 1}, discard); err == nil {
		t.Fatal("unreplayable trace accepted")
	}
}
