package coverage

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/sim"
)

// The engine-equivalence property: for every replay-safe runner and
// every batchable fault universe, the bit-parallel and compiled
// engines — the latter with collapsing both on and off — must produce
// a Result byte-identical to the per-fault oracle: same totals, same
// per-class detected counts, same clean-run metadata.  Stats is
// diagnostic metadata outside the contract and is zeroed before
// comparing.

func assertEngineEquivalence(t *testing.T, r Runner, u fault.Universe, mk MemoryFactory) {
	t.Helper()
	oracle := CampaignEngine(r, u, mk, 4, EngineOracle)
	oracle.Stats = nil
	for _, mode := range []struct {
		name     string
		engine   Engine
		collapse bool
	}{
		{"bitpar", EngineBitParallel, false},
		{"compiled", EngineCompiled, false},
		{"compiled+collapse", EngineCompiled, true},
	} {
		SetCollapse(mode.collapse)
		got := CampaignEngine(r, u, mk, 4, mode.engine)
		SetCollapse(true)
		got.Stats = nil
		if !reflect.DeepEqual(oracle, got) {
			t.Errorf("%s on %s: engines disagree\noracle: %+v\n%s: %+v",
				r.Name(), u.Name, oracle, mode.name, got)
			for _, c := range oracle.Classes() {
				if oracle.ByClass[c] != got.ByClass[c] {
					t.Errorf("  class %s: oracle %+v %s %+v", c, oracle.ByClass[c], mode.name, got.ByClass[c])
				}
			}
			perFaultDiff(t, r, u, mk)
		}
	}
}

// perFaultDiff pinpoints individual faults the engines disagree on —
// diagnostic detail for when the aggregate property fails.
func perFaultDiff(t *testing.T, r Runner, u fault.Universe, mk MemoryFactory) {
	t.Helper()
	for _, f := range u.Faults {
		single := fault.Universe{Name: "single", Faults: []fault.Fault{f}}
		o := CampaignEngine(r, single, mk, 1, EngineOracle)
		for _, engine := range []Engine{EngineBitParallel, EngineCompiled} {
			b := CampaignEngine(r, single, mk, 1, engine)
			if o.Detected != b.Detected {
				t.Errorf("  fault %s: oracle detected=%v %s detected=%v", f, o.Detected == 1, engine, b.Detected == 1)
			}
		}
	}
}

func womUniverses(n, m int) []fault.Universe {
	return []fault.Universe{
		{Name: "single-cell", Faults: fault.SingleCellUniverse(n, m)},
		{Name: "stuck-open", Faults: fault.StuckOpenUniverse(n)},
		{Name: "retention", Faults: fault.RetentionUniverse(n, m, 16)},
		{Name: "decoder", Faults: fault.DecoderUniverse(n)},
		{Name: "coupling", Faults: fault.CouplingUniverse(
			append(fault.AdjacentPairs(n), fault.SamplePairs(n, m, 24, 7)...))},
		fault.StandardUniverse(n, m, 12, 42),
	}
}

// equivalenceSizes shrinks the universe sweep under -short (the -race
// CI job runs these packages with shortened universes).
func equivalenceSizes(sizes []int, t *testing.T) []int {
	t.Helper()
	if testing.Short() {
		return sizes[:1]
	}
	return sizes
}

func TestEngineEquivalenceMarch(t *testing.T) {
	for _, n := range equivalenceSizes([]int{16, 33, 48}, t) {
		for _, u := range womUniverses(n, 4) {
			r := MarchRunner(march.MarchCMinus(), march.DataBackgrounds(4))
			assertEngineEquivalence(t, r, u, womFactory(n, 4))
		}
		// Bit-oriented memories with a different March algorithm.
		u := fault.Universe{Name: "bom-single", Faults: fault.SingleCellUniverse(n, 1)}
		assertEngineEquivalence(t, MarchRunner(march.MarchB(), nil), u, bomFactory(n))
	}
}

func TestEngineEquivalencePRT(t *testing.T) {
	gen := prt.PaperWOMConfig().Gen
	ringCfg := prt.PaperWOMConfig()
	ringCfg.Ring = true
	ringCfg.Verify = true
	for _, n := range equivalenceSizes([]int{17, 33, 48}, t) {
		for _, s := range []prt.Scheme{
			prt.StandardScheme3(gen),
			prt.StandardScheme3(gen).SignatureOnly(),
			prt.ExtendedScheme(gen, 2),
			{Name: "PRT-ring", Iters: []prt.Config{ringCfg}},
		} {
			for _, u := range womUniverses(n, 4) {
				assertEngineEquivalence(t, PRTRunner(s), u, womFactory(n, 4))
			}
		}
	}
}

func TestEngineEquivalenceBitSlicedLaneModes(t *testing.T) {
	const n, m = 32, 4
	for _, mode := range []prt.LaneMode{prt.ParallelLanes, prt.RandomLanes} {
		r := BitSlicedRunner(fmt.Sprintf("lanes/%s", mode), prt.BitSlicedScheme3(m, mode))
		for _, u := range []fault.Universe{
			{Name: "single-cell", Faults: fault.SingleCellUniverse(n, m)},
			{Name: "intra-word", Faults: fault.IntraWordUniverse(n, m)},
			{Name: "coupling", Faults: fault.CouplingUniverse(fault.AdjacentPairs(n))},
		} {
			assertEngineEquivalence(t, r, u, womFactory(n, m))
		}
	}
}

func TestEngineEquivalenceNPSF(t *testing.T) {
	const n, width = 36, 6
	u := fault.Universe{Name: "npsf", Faults: append(
		fault.NPSFUniverse(n, width, 3), fault.ANPSFUniverse(n, width, 5)...)}
	mk := bomFactory(n)
	gen := prt.PaperBOMConfig().Gen
	assertEngineEquivalence(t, MarchRunner(march.MarchSS(), nil), u, mk)
	assertEngineEquivalence(t, PRTRunner(prt.StandardScheme3(gen)), u, mk)
}

// TestEngineFallbacks: non-replay-safe runners and non-batchable
// faults must silently take the oracle path with identical results.
func TestEngineFallbacks(t *testing.T) {
	const n = 16
	u := fault.Universe{Name: "single", Faults: fault.SingleCellUniverse(n, 1)}
	// An anonymous runner without the ReplaySafe marker.
	r := opaqueRunner{inner: MarchRunner(march.MATSPlus(), nil)}
	assertEngineEquivalence(t, r, u, bomFactory(n))
}

type opaqueRunner struct{ inner Runner }

func (o opaqueRunner) Name() string                    { return o.inner.Name() + "/opaque" }
func (o opaqueRunner) Run(m ram.Memory) (bool, uint64) { return o.inner.Run(m) }

// notedFault is a fault type outside the collapser's built-in models,
// and not comparable: the slice beside the embedded model (which
// supplies the oracle and batch behaviour) made a map-keyed collapser
// panic with "hash of unhashable type".
type notedFault struct {
	fault.BatchInjector
	notes []string
}

// TestCollapseUnknownFaultType: a universe mixing built-in faults with
// unhashable foreign ones — twins included — collapses without
// panicking, and every per-fault verdict, materialized and streaming,
// is byte-identical with collapsing on and off.
func TestCollapseUnknownFaultType(t *testing.T) {
	const n, m = 16, 4
	base := fault.StandardUniverse(n, m, 12, 42).Faults
	var faults []fault.Fault
	for i, f := range base {
		if i%2 == 0 {
			faults = append(faults, f)
			continue
		}
		nf := notedFault{BatchInjector: f.(fault.BatchInjector), notes: []string{f.String()}}
		faults = append(faults, nf)
		if i%7 == 0 {
			faults = append(faults, nf) // twin
		}
	}
	u := fault.Universe{Name: "noted", Faults: faults}
	gen := prt.PaperWOMConfig().Gen
	runners := []Runner{
		MarchRunner(march.MarchCMinus(), march.DataBackgrounds(m)),
		PRTRunner(prt.StandardScheme3(gen)),
	}
	run := func(stream, collapse bool) *Session {
		SetCollapse(collapse)
		defer SetCollapse(true)
		p := Plan{
			Runners: runners, Memory: womFactory(n, m), Workers: 2,
			Engine: EngineCompiled, KeepVectors: true, Cache: sim.NewProgramCache(),
		}
		if stream {
			p.Stream = &fault.Stream{Name: u.Name, Source: fault.SliceSource(faults)}
			p.Chunk = 100
		} else {
			p.Universe = u
		}
		s := p.Run()
		for i := range s.Results {
			s.Results[i].Stats = nil
		}
		s.Stages = nil
		return s
	}
	for _, stream := range []bool{false, true} {
		on, off := run(stream, true), run(stream, false)
		if !reflect.DeepEqual(on, off) {
			t.Errorf("stream=%v: collapsed session differs from uncollapsed\non:  %+v\noff: %+v", stream, on.Results, off.Results)
		}
	}
}
