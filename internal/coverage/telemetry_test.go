package coverage

import (
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestStageTimingAllEngines: the always-on EngineStats timing fields
// are populated whichever engine actually ran — the three requested
// strategies and the silent oracle fallback alike — with no telemetry
// registry attached.
func TestStageTimingAllEngines(t *testing.T) {
	const n = 16
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	r := MarchRunner(march.MarchCMinus(), nil)
	for _, engine := range []Engine{EngineOracle, EngineBitParallel, EngineCompiled} {
		res := CampaignEngine(r, u, bomFactory(n), 2, engine)
		if res.Stats == nil {
			t.Fatalf("%v: Stats nil", engine)
		}
		if res.Stats.Elapsed <= 0 {
			t.Errorf("%v: Elapsed = %v", engine, res.Stats.Elapsed)
		}
		if res.Stats.FaultsPerSec <= 0 {
			t.Errorf("%v: FaultsPerSec = %v", engine, res.Stats.FaultsPerSec)
		}
		if cr := res.Stats.CollapseRatio; cr <= 0 || cr > 1 {
			t.Errorf("%v: CollapseRatio = %v", engine, cr)
		}
	}
	// The oracle fallback path (a replay-safe runner whose trace cannot
	// actually replay) flows through the same stage timing.
	res := CampaignEngine(unannotatedReplaySafe{}, u, bomFactory(n), 2, EngineCompiled)
	if res.Stats == nil || res.Stats.Engine != EngineOracle {
		t.Fatalf("fallback Stats = %+v", res.Stats)
	}
	if res.Stats.Elapsed <= 0 || res.Stats.FaultsPerSec <= 0 {
		t.Errorf("fallback timing: elapsed=%v faults/s=%v", res.Stats.Elapsed, res.Stats.FaultsPerSec)
	}
}

// TestSessionTelemetryDetail: with a registry attached, a materialized
// session populates the registry-gated EngineStats detail (per-worker
// kernel time, cache accounting) and delivers one StageReport per
// stage through OnStage.
func TestSessionTelemetryDetail(t *testing.T) {
	const n = 32
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var reports []telemetry.StageReport
	reg.OnStage(func(rep telemetry.StageReport) {
		mu.Lock()
		reports = append(reports, rep)
		mu.Unlock()
	})
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)

	p := Plan{
		Runners:  []Runner{MarchRunner(march.MarchCMinus(), nil), MarchRunner(march.MATSPlus(), nil)},
		Universe: u, Memory: bomFactory(n), Workers: 2,
		Engine: EngineCompiled, Cache: sim.NewProgramCache(),
	}
	s := p.Run()
	for _, st := range s.Stages {
		if st.Stats.Elapsed <= 0 || st.Stats.FaultsPerSec <= 0 {
			t.Errorf("%s: timing %v / %v", st.Runner, st.Stats.Elapsed, st.Stats.FaultsPerSec)
		}
		if len(st.Stats.KernelTime) == 0 {
			t.Errorf("%s: no per-worker kernel time with registry attached", st.Runner)
		}
		if st.Stats.CacheMisses != 1 {
			t.Errorf("%s: cold-cache stage CacheMisses = %d", st.Runner, st.Stats.CacheMisses)
		}
		if st.Stats.CollapseTime <= 0 {
			t.Errorf("%s: CollapseTime = %v with collapsing on", st.Runner, st.Stats.CollapseTime)
		}
	}
	if reg.Snapshot().Metrics()["collapse_seconds"] <= 0 {
		t.Error("/metrics collapse_seconds is zero after a collapsed stage")
	}
	if len(reports) != len(s.Stages) {
		t.Fatalf("stage reports = %d, want %d", len(reports), len(s.Stages))
	}
	for _, rep := range reports {
		if rep.Universe != "single" || rep.Engine != "compiled" {
			t.Errorf("report labels: %+v", rep)
		}
		if rep.Entered != u.Len() || rep.Elapsed <= 0 {
			t.Errorf("report body: %+v", rep)
		}
	}

	snap := reg.Snapshot()
	if snap.Faults != uint64(2*u.Len()) {
		t.Errorf("registry faults = %d, want %d", snap.Faults, 2*u.Len())
	}
	if snap.CacheMisses != 2 {
		t.Errorf("cache misses = %d, want 2 (one per cold stage)", snap.CacheMisses)
	}
}

// TestStreamTelemetryDetail: a streaming session fills the sink-wait
// and source-wait splits (the 16-worker contention question), computes
// sink-wait shares, and reports its stages.  Streams are never
// collapsed, even with collapsing on.
func TestStreamTelemetryDetail(t *testing.T) {
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var reports []telemetry.StageReport
	reg.OnStage(func(rep telemetry.StageReport) {
		mu.Lock()
		reports = append(reports, rep)
		mu.Unlock()
	})
	telemetry.SetActive(reg)
	defer telemetry.SetActive(nil)
	SetCollapse(true)

	src := fault.FullCouplingSource(9)
	st := &fault.Stream{Name: "cf-exhaustive", Source: src}
	res := CampaignStream(MarchRunner(march.MarchCMinus(), nil), st, bomFactory(9), 2, 64)
	if res.Stats == nil || res.Stats.Elapsed <= 0 || res.Stats.FaultsPerSec <= 0 {
		t.Fatalf("streaming Stats = %+v", res.Stats)
	}
	if got := len(res.Stats.SinkWait); got == 0 || got > res.Stats.Workers {
		t.Errorf("SinkWait rows = %d of %d workers", got, res.Stats.Workers)
	}
	shares := res.Stats.SinkWaitShares()
	if len(shares) != len(res.Stats.SinkWait) {
		t.Errorf("SinkWaitShares rows = %d", len(shares))
	}
	for i, sh := range shares {
		if sh < 0 || sh > 1 {
			t.Errorf("worker %d sink-wait share = %v", i, sh)
		}
	}
	if res.Stats.Reps != res.Total || res.Stats.CollapseRatio != 1 || res.Stats.CollapseTime != 0 {
		t.Errorf("streaming stage collapsed: Reps = %d of %d, CollapseRatio = %v, CollapseTime = %v",
			res.Stats.Reps, res.Total, res.Stats.CollapseRatio, res.Stats.CollapseTime)
	}
	if len(reports) != 1 || reports[0].Universe != "cf-exhaustive" {
		t.Fatalf("stage reports: %+v", reports)
	}
	if len(reports[0].SinkWait) != len(res.Stats.SinkWait) {
		t.Errorf("report sink-wait rows = %d", len(reports[0].SinkWait))
	}
}

// TestSinkWaitSharesDetached: without a registry there is no per-worker
// detail, and the shares helper reports that as nil rather than
// fabricating zeros.
func TestSinkWaitSharesDetached(t *testing.T) {
	src := fault.FullCouplingSource(9)
	st := &fault.Stream{Name: "cf-exhaustive", Source: src}
	res := CampaignStream(MarchRunner(march.MarchCMinus(), nil), st, bomFactory(9), 2, 64)
	if res.Stats == nil {
		t.Fatal("Stats nil")
	}
	if res.Stats.SinkWait != nil {
		t.Errorf("detached run has per-worker SinkWait: %v", res.Stats.SinkWait)
	}
	if shares := res.Stats.SinkWaitShares(); shares != nil {
		t.Errorf("detached SinkWaitShares = %v, want nil", shares)
	}
	if res.Stats.Elapsed <= 0 {
		t.Errorf("always-on Elapsed missing: %v", res.Stats.Elapsed)
	}
}
