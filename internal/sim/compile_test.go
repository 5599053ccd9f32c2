package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
)

// recordWOM captures a width-m March trace (data backgrounds exercise
// every bit) on a fresh WOM.
func recordWOM(t *testing.T, test march.Test, n, m int) *Trace {
	t.Helper()
	tr, detected, ops := Record(ram.NewWOM(n, m), func(mem ram.Memory) (bool, uint64) {
		r := march.RunBackgrounds(test, mem, march.DataBackgrounds(m))
		return r.Detected, r.Ops
	})
	if detected || ops == 0 {
		t.Fatalf("bad clean run: detected=%v ops=%d", detected, ops)
	}
	return tr
}

// recordPRT captures a pseudo-ring trace, whose recurrence writes
// exercise the affine instruction path.
func recordPRT(t *testing.T, n, m int) *Trace {
	t.Helper()
	s := prt.StandardScheme3(prt.PaperWOMConfig().Gen)
	tr, detected, ops := Record(ram.NewWOM(n, m), func(mem ram.Memory) (bool, uint64) {
		r, err := s.Run(mem)
		if err != nil {
			t.Fatal(err)
		}
		return r.Detected, r.Ops
	})
	if detected || ops == 0 {
		t.Fatalf("bad clean run: detected=%v ops=%d", detected, ops)
	}
	if tr.MaxBack == 0 {
		t.Fatal("PRT trace has no affine writes — annotation lost?")
	}
	return tr
}

// recordObserver captures a signature-observer trace on a width-m WOM:
// literal TDB writes (no affine recurrences), every read-back folded
// into a GF(2^m) MISR observer, one compare point, no checked reads —
// the minimal signature-BIST shape.  Being non-affine, it is also the
// shape whose detection depends entirely on the fold/observe path (and
// exercises the folded-bit gating of trace-conditioned collapsing).
func recordObserver(t *testing.T, n, m int) *Trace {
	t.Helper()
	f := gf.NewField(m)
	alpha := f.Generator()
	step := f.ConstMulMatrix(alpha).Rows
	tap := gf.IdentityMatrix(m).Rows
	tr, detected, ops := Record(ram.NewWOM(n, m), func(mem ram.Memory) (bool, uint64) {
		var ops uint64
		for a := 0; a < n; a++ {
			mem.Write(a, ram.Word(gf.Elem(a)&f.Mask()))
			ops++
		}
		var sig, want gf.Elem
		for a := 0; a < n; a++ {
			v := gf.Elem(mem.Read(a))
			ram.AnnotateFold(mem, 0, step, tap)
			ops++
			sig = f.Add(f.Mul(alpha, sig), v)
			want = f.Add(f.Mul(alpha, want), gf.Elem(a)&f.Mask())
		}
		ram.AnnotateObserved(mem, 0)
		return sig != want, ops
	})
	if detected || ops == 0 {
		t.Fatalf("bad clean run: detected=%v ops=%d", detected, ops)
	}
	if tr.Checked != 0 || tr.Observes != 1 || len(tr.Observers) != 1 || tr.Observers[0] != m {
		t.Fatalf("observer trace mis-annotated: checked=%d observes=%d observers=%v",
			tr.Checked, tr.Observes, tr.Observers)
	}
	if !tr.Replayable() {
		t.Fatal("observer-only trace must be replayable")
	}
	return tr
}

// assertCompiledMatchesReplayBatch is the kernel-equivalence property:
// for every 64-fault batch of the universe, Program.Replay through a
// reused arena must return the exact detection mask of the existing
// per-batch interpreter.
func assertCompiledMatchesReplayBatch(t *testing.T, tr *Trace, faults []fault.Fault) {
	t.Helper()
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(p)
	for lo := 0; lo < len(faults); lo += BatchSize {
		hi := lo + BatchSize
		if hi > len(faults) {
			hi = len(faults)
		}
		want, err := ReplayBatch(tr, faults[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Replay(a, faults[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch [%d:%d): compiled mask %064b\n              interpreter %064b", lo, hi, got, want)
		}
	}
}

func TestCompiledKernelWidth1MatchesInterpreter(t *testing.T) {
	const n = 24
	tr := recordMarch(t, march.MarchB(), n)
	u := fault.StandardUniverse(n, 1, 8, 3)
	assertCompiledMatchesReplayBatch(t, tr, u.Faults)
}

func TestCompiledKernelGenericMatchesInterpreter(t *testing.T) {
	const n, m = 24, 4
	tr := recordWOM(t, march.MarchCMinus(), n, m)
	u := fault.StandardUniverse(n, m, 8, 5)
	assertCompiledMatchesReplayBatch(t, tr, u.Faults)
}

func TestCompiledKernelAffineMatchesInterpreter(t *testing.T) {
	const n, m = 17, 4
	tr := recordPRT(t, n, m)
	u := fault.StandardUniverse(n, m, 8, 7)
	assertCompiledMatchesReplayBatch(t, tr, u.Faults)
}

// TestCompiledKernelObserverMatchesInterpreter: both kernels must fold
// the per-lane accumulator differences exactly as the interpreter does,
// for the width-1 and the generic kernel.
func TestCompiledKernelObserverMatchesInterpreter(t *testing.T) {
	for _, m := range []int{1, 4} {
		const n = 24
		tr := recordObserver(t, n, m)
		u := fault.StandardUniverse(n, m, 8, 9)
		assertCompiledMatchesReplayBatch(t, tr, u.Faults)
	}
}

// TestCompileTrimsSuffix: ops after the last checked read cannot affect
// detection, so the compiler drops them — and replay of the trimmed
// program must still match the interpreter on the untrimmed trace.
func TestCompileTrimsSuffix(t *testing.T) {
	const n = 16
	tr := recordMarch(t, march.MATSPlus(), n)
	trailing := 0 // ops the recorded trace already has past its last check
	for i := len(tr.Ops) - 1; i >= 0; i-- {
		if tr.Ops[i].Kind == ram.OpRead && tr.Ops[i].Checked {
			break
		}
		trailing++
	}
	// Append a write-and-unchecked-read tail, as a non-annotating
	// executor epilogue would leave.
	tail := []Op{
		{Kind: ram.OpWrite, Addr: 0, Data: 1},
		{Kind: ram.OpRead, Addr: 0, Data: 1},
		{Kind: ram.OpWrite, Addr: n - 1, Data: 0},
	}
	tr.Ops = append(tr.Ops, tail...)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := trailing + len(tail); p.TrimmedOps() != want {
		t.Fatalf("TrimmedOps = %d, want %d", p.TrimmedOps(), want)
	}
	// Each fused super-op swallowed two trace ops into one instruction.
	if p.Ops()+p.FusedOps() != len(tr.Ops)-trailing-len(tail) {
		t.Fatalf("Ops+FusedOps = %d+%d, want %d", p.Ops(), p.FusedOps(), len(tr.Ops)-trailing-len(tail))
	}
	assertCompiledMatchesReplayBatch(t, tr, fault.SingleCellUniverse(n, 1))
}

func TestCompileRejectsUnannotatedTrace(t *testing.T) {
	tr := &Trace{Size: 4, Width: 1, Init: make([]ram.Word, 4), Ops: []Op{
		{Kind: ram.OpWrite, Addr: 0, Data: 1},
		{Kind: ram.OpRead, Addr: 0, Data: 1},
	}}
	if _, err := Compile(tr, 1); err == nil {
		t.Fatal("expected an error for a trace with no checked reads")
	}
}

// TestCompileRejectsWrongAffineAnnotation: the word kernels start each
// recurrence write from its recorded clean value, so an annotation
// whose Offset ⊕ Σ M·(clean reads) disagrees with the recorded write
// would silently corrupt verdicts — Compile must refuse it, naming the
// op and the cell.
func TestCompileRejectsWrongAffineAnnotation(t *testing.T) {
	tr := recordPRT(t, 17, 4)
	if _, err := Compile(tr, 1); err != nil {
		t.Fatalf("well-annotated trace rejected: %v", err)
	}
	at := -1
	for i := range tr.Ops {
		if tr.Ops[i].Lin != nil {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatal("PRT trace has no affine writes")
	}
	lin := *tr.Ops[at].Lin
	lin.Offset ^= 1
	tr.Ops[at].Lin = &lin
	for _, w := range []int{1, 4} {
		_, err := Compile(tr, w)
		if err == nil {
			t.Fatalf("W=%d: corrupted affine offset at op %d compiled", w, at)
		}
		want := fmt.Sprintf("op %d (cell %d)", at, tr.Ops[at].Addr)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("W=%d: error %q does not name %q", w, err, want)
		}
	}
}

// TestCompileInternsLaneValues: the lane pool holds one broadcast block
// per distinct word value, not one per instruction.
func TestCompileInternsLaneValues(t *testing.T) {
	const m = 4
	tr := recordPRT(t, 64, m)
	for _, w := range []int{1, 8} {
		p, err := Compile(tr, w)
		if err != nil {
			t.Fatal(err)
		}
		if max := (1 << m) * m * w; len(p.lanePool) > max {
			t.Fatalf("W=%d: lane pool has %d words for %d ops, want at most %d (2^width blocks)", w, len(p.lanePool), p.Ops(), max)
		}
	}
}

// TestReplaySteadyStateAllocatesNothing is the zero-allocation
// regression gate: once an arena has warmed (hook-table capacity grown,
// pool populated), replaying a batch must not allocate a single heap
// object, for both the width-1 and the generic kernel and across every
// hook-installing fault model.
func TestReplaySteadyStateAllocatesNothing(t *testing.T) {
	cases := []struct {
		name   string
		tr     *Trace
		faults []fault.Fault
	}{
		{"width1", recordMarch(t, march.MarchCMinus(), 32),
			fault.StandardUniverse(32, 1, 8, 11).Faults[:BatchSize]},
		{"generic", recordWOM(t, march.MarchCMinus(), 32, 4),
			fault.StandardUniverse(32, 4, 8, 11).Faults[:BatchSize]},
		{"affine", recordPRT(t, 17, 4),
			fault.StandardUniverse(17, 4, 8, 11).Faults[:BatchSize]},
		{"observer1", recordObserver(t, 32, 1),
			fault.StandardUniverse(32, 1, 8, 11).Faults[:BatchSize]},
		{"observerN", recordObserver(t, 32, 4),
			fault.StandardUniverse(32, 4, 8, 11).Faults[:BatchSize]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(tc.tr, 1)
			if err != nil {
				t.Fatal(err)
			}
			a := NewArena(p)
			if _, err := p.Replay(a, tc.faults); err != nil { // warm-up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := p.Replay(a, tc.faults); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state replay allocates %.1f objects per batch, want 0", allocs)
			}
		})
	}
}

// TestArenaResetRestoresExactState: a batch that dirties cells and
// installs hooks must leave no residue observable by the next batch —
// replaying batch A, then B, then A again must reproduce A's mask.
func TestArenaResetRestoresExactState(t *testing.T) {
	const n = 16
	tr := recordMarch(t, march.MarchCMinus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(p)
	u := fault.StandardUniverse(n, 1, 8, 13).Faults
	batchA, batchB := u[:BatchSize], u[BatchSize:2*BatchSize]
	first, err := p.Replay(a, batchA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Replay(a, batchB); err != nil {
		t.Fatal(err)
	}
	again, err := p.Replay(a, batchA)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("arena reset leaks state: first %064b, again %064b", first, again)
	}
}

func TestShardsCompiledMatchesAcrossWorkerCounts(t *testing.T) {
	const n = 32
	tr := recordMarch(t, march.MarchB(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.SingleCellUniverse(n, 1) // 128 faults = 2 batches
	ref := replayRef(t, p, faults)
	for _, workers := range []int{1, 3, 8} {
		got := streamed(t, faults, func(src fault.Source, sink ChunkSink) (int, int, error) {
			return ShardsCompiledStream(context.Background(), p, src, StreamConfig{Workers: workers}, sink)
		})
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("workers=%d: fault %d differs from the per-batch replay", workers, i)
			}
		}
	}
}

// TestShardsPropagateBatchErrors: a fault that cannot be batch-injected
// sits in a later batch; both drivers must surface the error (and the
// stop flag keeps other workers from churning through the remainder).
func TestShardsPropagateBatchErrors(t *testing.T) {
	const n = 32
	tr := recordMarch(t, march.MarchB(), n)
	faults := fault.SingleCellUniverse(n, 1) // 2 batches
	faults[BatchSize+3] = alienFault{}       // second batch fails injection
	ctx := context.Background()
	cfg := StreamConfig{Workers: 2}
	var discard ChunkSink = func(int, int, []int, []fault.Fault, []bool) {}
	if _, _, err := ShardsStream(ctx, tr, fault.SliceSource(faults), cfg, discard); err == nil {
		t.Fatal("ShardsStream must propagate a failing batch")
	}
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ShardsCompiledStream(ctx, p, fault.SliceSource(faults), cfg, discard); err == nil {
		t.Fatal("ShardsCompiledStream must propagate a failing batch")
	}
}
