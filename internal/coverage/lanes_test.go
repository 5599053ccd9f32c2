package coverage

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
)

// The lane-width property (this PR's acceptance criterion): the lane
// width is pure throughput plumbing — a session at 4 or 8 lane words
// produces Results, verdict vectors and cumulative tallies
// byte-identical to the single-word session, for every universe
// family, on all three engines (the non-compiled engines must simply
// ignore the knob), with dropping on and off.

func TestLaneWidthEquivalence(t *testing.T) {
	gen := prt.PaperWOMConfig().Gen
	bgs := march.DataBackgrounds(4)
	runners := []Runner{
		MarchRunner(march.MATSPlus(), bgs),
		PRTRunner(prt.StandardScheme3(gen)),
	}
	engines := []Engine{EngineOracle, EngineBitParallel, EngineCompiled}
	universes := womUniverses(16, 4)
	if testing.Short() {
		engines = engines[2:] // only the compiled engine reads the knob
		universes = universes[:2]
	}
	for _, engine := range engines {
		for _, u := range universes {
			for _, drop := range []bool{false, true} {
				run := func(lanes int) *Session {
					p := Plan{
						Runners: runners, Universe: u, Memory: womFactory(16, 4),
						Workers: 4, Engine: engine, Drop: drop, KeepVectors: true,
						LaneWords: lanes,
					}
					return p.Run()
				}
				want := run(1)
				for _, lanes := range []int{4, 8} {
					label := fmt.Sprintf("%s [%s drop=%v lanes=%d]", u.Name, engine, drop, lanes)
					got := run(lanes)
					assertSessionsEqual(t, label, want, got)
					if engine == EngineCompiled {
						st := got.Stages[0].Stats
						if st.LaneWords != lanes {
							t.Errorf("%s: Stats.LaneWords = %d, want %d", label, st.LaneWords, lanes)
						}
						if st.FusedOps == 0 {
							t.Errorf("%s: march stage compiled with no fused super-ops", label)
						}
					}
				}
			}
		}
	}
}

// TestLaneWidthStreamingResumeEquivalence interrupts a wide streaming
// session mid-stage and resumes it: the resumed wide run must be
// byte-identical to an uninterrupted single-word run — the checkpoint
// cut logic never sees lane geometry, only universe indices.
func TestLaneWidthStreamingResumeEquivalence(t *testing.T) {
	fam := streamFamilies()[0] // single-cell: small and fully replayable
	count, _ := fam.src.Count()
	chunk := count/16 + 1
	dir := t.TempDir()
	mkPlan := func(src fault.Source, lanes int, path string, rs *checkpoint.State) *Plan {
		return &Plan{
			Runners: fam.runners,
			Stream:  &fault.Stream{Name: fam.name, Source: src},
			Chunk:   chunk, Memory: fam.mk, Workers: 4,
			Engine: EngineCompiled, Drop: true, LaneWords: lanes,
			Checkpoint: &CheckpointConfig{
				Path: path, Every: chunk, Label: "lanes", Seed: 7, Resume: rs,
			},
		}
	}

	want := mkPlan(fam.src, 1, filepath.Join(dir, "ref.fckp"), nil).Run()
	if want.Interrupted {
		t.Fatal("reference run reports interrupted")
	}

	for _, lanes := range []int{4, 8} {
		label := fmt.Sprintf("lanes=%d", lanes)
		file := filepath.Join(dir, fmt.Sprintf("wide%d.fckp", lanes))
		ctx, cancel := context.WithCancel(context.Background())
		cs := &cancelSource{Source: fam.src, cancel: cancel, cancelAtNext: 4}
		part := mkPlan(cs, lanes, file, nil).RunContext(ctx)
		cancel()
		assertWellFormed(t, label, part)

		rs, err := checkpoint.Load(file)
		if err != nil {
			t.Fatalf("%s: loading the interrupt checkpoint: %v", label, err)
		}
		got := mkPlan(fam.src, lanes, file, rs).Run()
		if got.Interrupted {
			t.Fatalf("%s: resumed run reports interrupted", label)
		}
		assertSessionsEqual(t, label, want, got)
	}
}

// inexactSource hides a source's length: Count reports its total as a
// capacity hint only.
type inexactSource struct{ fault.Source }

func (s inexactSource) Count() (int, bool) {
	n, _ := s.Source.Count()
	return n, false
}

// TestLaneWidthFromSessionSize: an unset Plan.LaneWords compiles at the
// width sim.LaneWordsFor picks from the session's size — 8 words for a
// universe that gives both workers 16 full 512-machine batches, 4 for
// half of it (a partition), 1 for a small one and for a stream of
// unknown length — and an explicit LaneWords wins over the rule.
func TestLaneWidthFromSessionSize(t *testing.T) {
	runners := []Runner{MarchRunner(march.MarchCMinus(), nil)}
	materialized := func(n, lanes int) *Plan {
		u := fault.Universe{Name: "cf", Faults: fault.Collect(fault.FullCouplingSource(n))}
		return &Plan{
			Runners: runners, Universe: u, Memory: bomFactory(n),
			Workers: 2, Engine: EngineCompiled, LaneWords: lanes,
		}
	}
	streamed := func(n int, src fault.Source) *Plan {
		return &Plan{
			Runners: runners, Stream: &fault.Stream{Name: "cf", Source: src},
			Memory: bomFactory(n), Workers: 2, Engine: EngineCompiled,
		}
	}
	halve := func(p *Plan) *Plan {
		p.PartitionIndex, p.PartitionCount = 1, 2
		return p
	}
	for _, tc := range []struct {
		label string
		plan  *Plan
		want  int
	}{
		{"20K materialized", materialized(42, 0), 8},
		{"1K materialized", materialized(10, 0), 1},
		{"20K materialized, LaneWords=4", materialized(42, 4), 4},
		{"1K materialized, LaneWords=8", materialized(10, 8), 8},
		{"20K exact stream", streamed(42, fault.FullCouplingSource(42)), 8},
		{"20K exact stream, partition 1/2", halve(streamed(42, fault.FullCouplingSource(42))), 4},
		{"20K inexact stream", streamed(42, inexactSource{fault.FullCouplingSource(42)}), 1},
	} {
		s := tc.plan.Run()
		if got := s.Stages[0].Stats.LaneWords; got != tc.want {
			t.Errorf("%s: compiled at %d lane words, want %d", tc.label, got, tc.want)
		}
		if s.Results[0].Coverage() != 1 {
			t.Errorf("%s: March C- coupling coverage %.4f, want 1", tc.label, s.Results[0].Coverage())
		}
	}
}
