package sim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/ram"
)

// recordMarch captures a March test's trace on a fresh BOM.
func recordMarch(t *testing.T, test march.Test, n int) *Trace {
	t.Helper()
	tr, detected, ops := Record(ram.NewBOM(n), func(m ram.Memory) (bool, uint64) {
		r := march.Run(test, m, 0)
		return r.Detected, r.Ops
	})
	if detected {
		t.Fatalf("clean run of %s detected a fault", test.Name)
	}
	if ops == 0 || len(tr.Ops) == 0 {
		t.Fatalf("empty trace")
	}
	return tr
}

func TestRecorderCapturesAnnotatedStream(t *testing.T) {
	const n = 8
	test := march.MarchCMinus()
	tr := recordMarch(t, test, n)
	if tr.Size != n || tr.Width != 1 {
		t.Fatalf("trace geometry %dx%d, want %dx1", tr.Size, tr.Width, n)
	}
	if got, want := len(tr.Ops), test.OpsPerCell()*n; got != want {
		t.Fatalf("recorded %d ops, want %d", got, want)
	}
	reads := 0
	for _, op := range tr.Ops {
		if op.Kind == ram.OpRead {
			reads++
			if !op.Checked {
				t.Fatalf("March read at addr %d not annotated as checked", op.Addr)
			}
		}
	}
	if tr.Checked != reads {
		t.Fatalf("Checked=%d, want %d", tr.Checked, reads)
	}
	if !tr.Replayable() {
		t.Fatalf("annotated trace not replayable")
	}
}

func TestReplayBatchDetectsExactlyTheOracleFaults(t *testing.T) {
	const n = 16
	test := march.MATSPlus() // detects all SAF, not all TF
	tr := recordMarch(t, test, n)
	faults := fault.SingleCellUniverse(n, 1)
	mask, err := ReplayBatch(tr, faults[:64])
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range faults[:64] {
		mem := f.Inject(ram.NewBOM(n))
		want := march.Run(test, mem, 0).Detected
		if got := mask>>uint(i)&1 == 1; got != want {
			t.Errorf("fault %s: replay detected=%v oracle=%v", f, got, want)
		}
	}
}

func TestReplayBatchPartialBatch(t *testing.T) {
	const n = 8
	tr := recordMarch(t, march.MarchCMinus(), n)
	faults := []fault.Fault{
		fault.SAF{Cell: 2, Bit: 0, Value: 1},
		fault.SAF{Cell: 5, Bit: 0, Value: 0},
		fault.TF{Cell: 3, Bit: 0, Up: true},
	}
	mask, err := ReplayBatch(tr, faults)
	if err != nil {
		t.Fatal(err)
	}
	if mask != 0b111 {
		t.Fatalf("detection mask %03b, want 111 (March C- covers SAF and TF)", mask)
	}
}

func TestReplayRejectsUnannotatedTrace(t *testing.T) {
	// A hand-built trace with no checked reads must be refused rather
	// than silently reporting zero coverage.
	tr := &Trace{Size: 4, Width: 1, Init: make([]ram.Word, 4), Ops: []Op{
		{Kind: ram.OpWrite, Addr: 0, Data: 1},
		{Kind: ram.OpRead, Addr: 0, Data: 1},
	}}
	if _, err := ReplayBatch(tr, []fault.Fault{fault.SAF{Cell: 0, Value: 0}}); err == nil {
		t.Fatal("expected an error for a trace with no checked reads")
	}
}

// alienFault implements fault.Fault but not fault.BatchInjector.
type alienFault struct{}

func (alienFault) Class() fault.Class             { return fault.ClassSAF }
func (alienFault) Inject(m ram.Memory) ram.Memory { return m }
func (alienFault) String() string                 { return "alien" }

func TestBatchableDetectsForeignFaults(t *testing.T) {
	ok := []fault.Fault{fault.SAF{}, fault.TF{}, fault.SOF{}, fault.DRF{},
		fault.AF{}, fault.CFin{}, fault.CFid{}, fault.CFst{}, fault.BF{},
		fault.SNPSF{}, fault.ANPSF{}}
	if !Batchable(ok) {
		t.Fatal("all built-in fault models should be batchable")
	}
	if Batchable(append(ok, alienFault{})) {
		t.Fatal("a fault without BatchInject must disable the fast path")
	}
	if _, err := ReplayBatch(&Trace{Checked: 1, Width: 1, Size: 1, Init: []ram.Word{0}},
		[]fault.Fault{alienFault{}}); err == nil {
		t.Fatal("ReplayBatch must refuse non-batchable faults")
	}
}

func TestShardsMatchesReplayBatchAcrossWorkerCounts(t *testing.T) {
	const n = 32
	tr := recordMarch(t, march.MarchB(), n)
	faults := fault.SingleCellUniverse(n, 1) // 128 faults = 2 batches
	var ref []bool
	for lo := 0; lo < len(faults); lo += BatchSize {
		mask, err := ReplayBatch(tr, faults[lo:lo+BatchSize])
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < BatchSize; j++ {
			ref = append(ref, mask>>uint(j)&1 == 1)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		got := streamed(t, faults, func(src fault.Source, sink ChunkSink) (int, int, error) {
			return ShardsStream(context.Background(), tr, src, StreamConfig{Workers: workers}, sink)
		})
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("workers=%d: fault %d differs from the per-batch replay", workers, i)
			}
		}
	}
}
