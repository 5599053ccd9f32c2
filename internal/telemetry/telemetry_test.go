package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestSnapshotAggregation: per-worker flushes land in the right rows
// and the snapshot sums them.
func TestSnapshotAggregation(t *testing.T) {
	r := NewRegistry()
	w0, w1 := r.Worker(0), r.Worker(1)
	r.Flush(w0, &Local{Faults: 10, Reps: 8, Batches: 1, KernelNanos: 1000})
	r.Flush(w0, &Local{Faults: 5, Chunks: 1, SinkWaitNanos: 200, SinkNanos: 300})
	r.Flush(w1, &Local{Faults: 7, Reps: 7, SourceWaitNanos: 400, CollapseNanos: 500})
	r.CacheLookup(true)
	r.CacheLookup(false)
	r.CacheLookup(false)
	r.ArenaGet(true)
	r.ArenaGet(false)
	r.CollapseDelta(100, 60)

	s := r.Snapshot()
	if s.Faults != 22 || s.Reps != 15 || s.Batches != 1 || s.Chunks != 1 {
		t.Errorf("sums: %+v", s)
	}
	if s.Kernel != 1000 || s.SinkWait != 200 || s.Sink != 300 || s.SourceWait != 400 || s.Collapse != 500 {
		t.Errorf("durations: %+v", s)
	}
	if len(s.Workers) != 2 {
		t.Fatalf("worker rows: %d", len(s.Workers))
	}
	if s.Workers[0].Faults != 15 || s.Workers[1].Faults != 7 {
		t.Errorf("per-worker faults: %d, %d", s.Workers[0].Faults, s.Workers[1].Faults)
	}
	if s.CacheHits != 1 || s.CacheMisses != 2 {
		t.Errorf("cache: hits=%d misses=%d", s.CacheHits, s.CacheMisses)
	}
	if s.ArenaReuse != 1 || s.ArenaFresh != 1 {
		t.Errorf("arena: reuse=%d fresh=%d", s.ArenaReuse, s.ArenaFresh)
	}
	if s.CollapseIn != 100 || s.CollapseOut != 60 {
		t.Errorf("collapse: %d/%d", s.CollapseIn, s.CollapseOut)
	}
	if got := s.CollapseRatio(); got != 0.6 {
		t.Errorf("collapse ratio = %v", got)
	}
	if m := s.Metrics(); m["faults_presented"] != 22 || m["workers"] != 2 || m["collapse_seconds"] != 500e-9 {
		t.Errorf("metrics: %v", m)
	}
}

// TestFlushZeroesLocal: Flush must reset the worker-local accumulator
// so the next batch starts clean.
func TestFlushZeroesLocal(t *testing.T) {
	r := NewRegistry()
	w := r.Worker(0)
	l := Local{Faults: 3, KernelNanos: 9}
	r.Flush(w, &l)
	if l != (Local{}) {
		t.Errorf("local not zeroed: %+v", l)
	}
}

// TestSnapshotSub: per-stage deltas line up worker for worker, and
// rows the previous snapshot lacks are taken whole.
func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	w0 := r.Worker(0)
	r.Flush(w0, &Local{Faults: 10, KernelNanos: 100})
	before := r.Snapshot()
	r.Flush(w0, &Local{Faults: 4, KernelNanos: 50, CollapseNanos: 20})
	w1 := r.Worker(1) // appears only after the baseline snapshot
	r.Flush(w1, &Local{Faults: 6})
	r.CacheLookup(false)

	d := r.Snapshot().Sub(before)
	if d.Faults != 10 || d.Kernel != 50 || d.Collapse != 20 || d.Workers[0].Collapse != 20 {
		t.Errorf("delta sums: faults=%d kernel=%d collapse=%d", d.Faults, d.Kernel, d.Collapse)
	}
	if len(d.Workers) != 2 || d.Workers[0].Faults != 4 || d.Workers[1].Faults != 6 {
		t.Errorf("delta rows: %+v", d.Workers)
	}
	if d.CacheMisses != 1 {
		t.Errorf("delta cache misses = %d", d.CacheMisses)
	}
}

// TestNilRegistry: every method is a no-op on a nil receiver — the
// detached-instrumentation mode call sites rely on.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	if w := r.Worker(3); w != nil {
		t.Error("nil registry returned a worker slot")
	}
	r.Flush(nil, &Local{Faults: 1})
	r.CacheLookup(true)
	r.ArenaGet(false)
	r.CollapseDelta(5, 3)
	r.ObserveIndex(9)
	r.ReportSurvivors(1)
	r.BeginStage("x", 10)
	r.StageDone(StageReport{})
	r.OnProgress(time.Second, func(Progress) { t.Error("callback on nil registry") })
	r.OnStage(func(StageReport) { t.Error("stage callback on nil registry") })
	if s := r.Snapshot(); s.Faults != 0 || len(s.Workers) != 0 {
		t.Errorf("nil snapshot: %+v", s)
	}
}

// TestEstimate: the ETA math, including its unknowns.
func TestEstimate(t *testing.T) {
	fps, eta := Estimate(100, 400, time.Second)
	if fps != 100 {
		t.Errorf("faults/s = %v", fps)
	}
	if eta != 3*time.Second {
		t.Errorf("eta = %v, want 3s", eta)
	}
	if _, eta := Estimate(0, 400, time.Second); eta >= 0 {
		t.Errorf("nothing done: eta = %v, want negative", eta)
	}
	if _, eta := Estimate(100, 0, time.Second); eta >= 0 {
		t.Errorf("unknown total: eta = %v, want negative", eta)
	}
	if _, eta := Estimate(400, 400, time.Second); eta != 0 {
		t.Errorf("complete: eta = %v, want 0", eta)
	}
	if fps, _ := Estimate(100, 400, 0); fps != 0 {
		t.Errorf("zero elapsed: faults/s = %v", fps)
	}
}

// TestProgressCadence: with a fake clock, emissions happen exactly
// when the cadence interval has elapsed — not on every flush.
func TestProgressCadence(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	var got []Progress
	r.OnProgress(time.Second, func(p Progress) { got = append(got, p) })
	r.ReportSurvivors(42)
	r.BeginStage("stage-a", 100)
	w := r.Worker(0)

	r.Flush(w, &Local{Faults: 10}) // same instant as BeginStage: suppressed
	if len(got) != 0 {
		t.Fatalf("emitted %d samples with no time elapsed", len(got))
	}
	now = now.Add(400 * time.Millisecond)
	r.Flush(w, &Local{Faults: 10}) // 0.4s since baseline: still suppressed
	if len(got) != 0 {
		t.Fatalf("emitted before the cadence interval")
	}
	now = now.Add(700 * time.Millisecond)
	r.ObserveIndex(19)
	r.Flush(w, &Local{Faults: 5}) // 1.1s: one emission
	if len(got) != 1 {
		t.Fatalf("emissions after interval = %d, want 1", len(got))
	}
	p := got[0]
	if p.Stage != "stage-a" || p.Done != 25 || p.Total != 100 {
		t.Errorf("sample: %+v", p)
	}
	if p.Survivors != 42 || p.HighWater != 19 {
		t.Errorf("survivors/highwater: %+v", p)
	}
	if p.Elapsed != 1100*time.Millisecond {
		t.Errorf("elapsed = %v", p.Elapsed)
	}
	now = now.Add(100 * time.Millisecond)
	r.Flush(w, &Local{Faults: 5}) // 0.1s after the last emission: suppressed
	if len(got) != 1 {
		t.Fatalf("re-emitted inside the interval")
	}
}

// TestProgressEveryFlush: every <= 0 emits on every flush — the mode
// tests use to observe each sample.
func TestProgressEveryFlush(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	r.SetClock(func() time.Time { now = now.Add(time.Millisecond); return now })
	var n int
	r.OnProgress(0, func(Progress) { n++ })
	r.BeginStage("s", 10)
	w := r.Worker(0)
	for i := 0; i < 5; i++ {
		r.Flush(w, &Local{Faults: 1})
	}
	if n != 5 {
		t.Errorf("emissions = %d, want 5", n)
	}
}

// TestBeginStageResetsBaseline: Done counts restart per stage and the
// high-water mark resets.
func TestBeginStageResetsBaseline(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	r.SetClock(func() time.Time { now = now.Add(time.Millisecond); return now })
	var last Progress
	r.OnProgress(0, func(p Progress) { last = p })
	w := r.Worker(0)

	r.BeginStage("first", 50)
	r.ObserveIndex(40)
	r.Flush(w, &Local{Faults: 30})
	if last.Done != 30 || last.HighWater != 40 {
		t.Fatalf("first stage: %+v", last)
	}
	r.BeginStage("second", 50)
	r.Flush(w, &Local{Faults: 10})
	if last.Stage != "second" || last.Done != 10 {
		t.Errorf("second stage baseline: %+v", last)
	}
	if last.HighWater != 0 {
		t.Errorf("high water not reset: %d", last.HighWater)
	}
}

// TestStageDone delivers through the OnStage callback.
func TestStageDone(t *testing.T) {
	r := NewRegistry()
	var got StageReport
	r.OnStage(func(rep StageReport) { got = rep })
	r.StageDone(StageReport{Stage: "m", Engine: "compiled", Entered: 9})
	if got.Stage != "m" || got.Engine != "compiled" || got.Entered != 9 {
		t.Errorf("stage report: %+v", got)
	}
}

// TestRegistryRace hammers one registry from many writer goroutines
// while snapshot readers and progress emissions run concurrently —
// the -race guard for the whole counter design.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	r.OnProgress(0, func(Progress) {}) // emit on every flush
	r.BeginStage("race", 1<<20)
	const writers = 8
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		writersWG.Add(1)
		go func(id int) {
			defer writersWG.Done()
			w := r.Worker(id)
			var l Local
			for j := 0; j < 500; j++ {
				l.Faults += 64
				l.Reps += 60
				l.KernelNanos += 10
				r.Flush(w, &l)
				r.ObserveIndex(int64(id*500 + j))
				r.CacheLookup(j%2 == 0)
				r.ArenaGet(j%3 == 0)
				r.CollapseDelta(64, 60)
				r.ReportSurvivors(int64(j))
			}
		}(i)
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	s := r.Snapshot()
	if want := uint64(writers * 500 * 64); s.Faults != want {
		t.Errorf("faults = %d, want %d", s.Faults, want)
	}
	if len(s.Workers) != writers {
		t.Errorf("worker rows = %d", len(s.Workers))
	}
}
