package sim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
)

// wideTraceCases covers every kernel family the wide paths dispatch to:
// the width-1 kernel (march on a 1-bit memory), the generic multi-bit
// kernel, the affine recurrence path (PRT), and the fold/observe (MISR)
// path at both widths.  Each case pairs the trace with a fault universe
// whose size is deliberately NOT a multiple of any batch width, so the
// final partial batch exercises the idle-group masking too.
func wideTraceCases(t *testing.T) []struct {
	name   string
	tr     *Trace
	faults []fault.Fault
} {
	t.Helper()
	return []struct {
		name   string
		tr     *Trace
		faults []fault.Fault
	}{
		{"width1", recordMarch(t, march.MarchB(), 24),
			fault.StandardUniverse(24, 1, 8, 3).Faults},
		{"generic", recordWOM(t, march.MarchCMinus(), 24, 4),
			fault.StandardUniverse(24, 4, 8, 5).Faults},
		{"affine", recordPRT(t, 17, 4),
			fault.StandardUniverse(17, 4, 8, 7).Faults},
		{"observer1", recordObserver(t, 24, 1),
			fault.StandardUniverse(24, 1, 8, 9).Faults},
		{"observerN", recordObserver(t, 24, 4),
			fault.StandardUniverse(24, 4, 8, 9).Faults},
	}
}

// TestWideKernelMatchesWidth1 is the tentpole equivalence property: a
// program compiled at 4 or 8 lane words must assign every fault the
// exact verdict of the classic single-word program — batch by batch,
// including the trailing partial batch — for every kernel family.
func TestWideKernelMatchesWidth1(t *testing.T) {
	for _, tc := range wideTraceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			p1, err := Compile(tc.tr, 1)
			if err != nil {
				t.Fatal(err)
			}
			a1 := NewArena(p1)
			for _, w := range []int{4, 8} {
				pw, err := Compile(tc.tr, w)
				if err != nil {
					t.Fatal(err)
				}
				if pw.LaneWords() != w || pw.BatchFaults() != w*BatchSize {
					t.Fatalf("lane geometry: LaneWords=%d BatchFaults=%d, want %d/%d",
						pw.LaneWords(), pw.BatchFaults(), w, w*BatchSize)
				}
				if pw.FusedOps() != p1.FusedOps() {
					t.Fatalf("fusion differs across widths: %d at w=%d, %d at w=1",
						pw.FusedOps(), w, p1.FusedOps())
				}
				aw := NewArena(pw)
				det := make([]uint64, w)
				for lo := 0; lo < len(tc.faults); lo += pw.BatchFaults() {
					hi := lo + pw.BatchFaults()
					if hi > len(tc.faults) {
						hi = len(tc.faults)
					}
					if err := pw.ReplayInto(aw, tc.faults[lo:hi], det); err != nil {
						t.Fatal(err)
					}
					// The wide batch's group g must equal the W=1 mask of the
					// corresponding 64-fault sub-batch.
					for g := 0; g*BatchSize < hi-lo; g++ {
						slo := lo + g*BatchSize
						shi := slo + BatchSize
						if shi > hi {
							shi = hi
						}
						want, err := p1.Replay(a1, tc.faults[slo:shi])
						if err != nil {
							t.Fatal(err)
						}
						if det[g] != want {
							t.Fatalf("w=%d batch [%d:%d) group %d:\n  wide %064b\n  w=1  %064b",
								w, lo, hi, g, det[g], want)
						}
					}
				}
			}
		})
	}
}

// TestWideShardsCompiledMatchesWidth1 runs the compiled driver over
// wide programs: verdicts must be identical to the single-word
// per-batch replay at every worker count (batch boundaries move with
// the width, worker interleaving with the count — neither may show).
func TestWideShardsCompiledMatchesWidth1(t *testing.T) {
	const n = 32
	tr := recordMarch(t, march.MarchB(), n)
	p1, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 8, 11).Faults
	ctx := context.Background()
	ref := replayRef(t, p1, faults)
	for _, w := range []int{4, 8} {
		pw, err := Compile(tr, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			got := streamed(t, faults, func(src fault.Source, sink ChunkSink) (int, int, error) {
				return ShardsCompiledStream(ctx, pw, src, StreamConfig{Workers: workers}, sink)
			})
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("w=%d workers=%d: fault %d differs from width-1 verdict", w, workers, i)
				}
			}
		}
	}
}

// TestWideStreamMatchesWidth1 is the streaming variant across chunk
// sizes: chunking and the wide batch layout must compose without
// changing a single verdict.
func TestWideStreamMatchesWidth1(t *testing.T) {
	const n = 33
	tr := recordMarch(t, march.MarchCMinus(), n)
	p1, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 6, 9).Faults
	ctx := context.Background()
	ref := replayRef(t, p1, faults)
	for _, w := range []int{4, 8} {
		pw, err := Compile(tr, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{7, 100, 4096} {
			cs := newCollectSink()
			if _, _, err := ShardsCompiledStream(ctx, pw, fault.SliceSource(faults),
				StreamConfig{Chunk: chunk, Workers: 3}, cs.sink); err != nil {
				t.Fatal(err)
			}
			if cs.seen != len(faults) {
				t.Fatalf("w=%d chunk=%d: %d verdicts, want %d", w, chunk, cs.seen, len(faults))
			}
			for i := range faults {
				if cs.det[i] != ref[i] {
					t.Fatalf("w=%d chunk=%d fault %d: stream %v, width-1 %v", w, chunk, i, cs.det[i], ref[i])
				}
			}
		}
	}
}

// TestWideReplaySteadyStateAllocatesNothing extends the zero-alloc
// hot-path guarantee to the wide kernels, for every kernel family.
func TestWideReplaySteadyStateAllocatesNothing(t *testing.T) {
	for _, tc := range wideTraceCases(t) {
		for _, w := range []int{4, 8} {
			p, err := Compile(tc.tr, w)
			if err != nil {
				t.Fatal(err)
			}
			a := NewArena(p)
			batch := tc.faults
			if len(batch) > p.BatchFaults() {
				batch = batch[:p.BatchFaults()]
			}
			det := make([]uint64, w)
			if err := p.ReplayInto(a, batch, det); err != nil { // warm-up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := p.ReplayInto(a, batch, det); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s w=%d: steady-state replay allocates %.1f objects per batch, want 0",
					tc.name, w, allocs)
			}
		}
	}
}

// TestCompileRejectsUnsupportedLaneWidths: width validation must refuse
// up front.
func TestCompileRejectsUnsupportedLaneWidths(t *testing.T) {
	tr := recordMarch(t, march.MATSPlus(), 8)
	for _, w := range []int{-1, 0, 2, 3, 5, 7, 9, 16} {
		if _, err := Compile(tr, w); err == nil {
			t.Errorf("Compile accepted laneWords=%d", w)
		}
		if ValidLaneWords(w) {
			t.Errorf("ValidLaneWords(%d) = true", w)
		}
	}
	for _, w := range []int{1, 4, 8} {
		if !ValidLaneWords(w) {
			t.Errorf("ValidLaneWords(%d) = false", w)
		}
	}
}

// TestReplayRejectsWideProgram: the single-mask compat entry point only
// fits one lane word; a wide program must refuse it rather than return
// a truncated mask.
func TestReplayRejectsWideProgram(t *testing.T) {
	tr := recordMarch(t, march.MATSPlus(), 8)
	p, err := Compile(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(p)
	faults := fault.SingleCellUniverse(8, 1)
	if _, err := p.Replay(a, faults); err == nil {
		t.Fatal("Replay accepted a 4-word program")
	}
	det := make([]uint64, 3)
	if err := p.ReplayInto(a, faults, det); err == nil {
		t.Fatal("ReplayInto accepted a det buffer of the wrong word count")
	}
}
