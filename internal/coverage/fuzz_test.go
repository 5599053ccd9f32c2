package coverage

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/march"
	"repro/internal/prt"
)

// wordCase is one decoded input of FuzzWordKernelMatchesOracle.
type wordCase struct {
	n, width int
	scheme   int // index into wordCaseSchemes
	lanes    int
	drop     bool
	picks    []int // indices into the case's standard universe
}

var wordCaseSchemes = []string{"PRT-3", "PRT-3/sig", "PRT-3/bist", "PRT-4"}

// decodeWordCase maps arbitrary bytes onto a small word-oriented
// session: a WOM of 8–64 cells of width 2 or 4, one of four PRT-family
// runners, a lane width, dropping on or off, and up to 8 faults drawn
// from the standard universe.  Missing bytes read as zero, so every
// input decodes.
func decodeWordCase(data []byte) wordCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	c := wordCase{n: 8 + next()%57, width: 2}
	if next()&1 == 1 {
		c.width = 4
	}
	c.scheme = next() % len(wordCaseSchemes)
	c.lanes = []int{1, 4, 8}[next()%3]
	c.drop = next()&1 == 1
	nf := 1 + next()%8
	for i := 0; i < nf; i++ {
		c.picks = append(c.picks, next()<<8|next())
	}
	return c
}

// runner builds the case's PRT-family runner over GF(2^width).
func (c wordCase) runner() Runner {
	gen := prt.PaperWOMConfig().Gen
	if c.width != 4 {
		f := gf.NewField(c.width)
		gen = lfsr.MustGenPoly(f, []gf.Elem{1, 2 % (f.Mask() + 1), 2 % (f.Mask() + 1)})
	}
	switch wordCaseSchemes[c.scheme] {
	case "PRT-3":
		return PRTRunner(prt.StandardScheme3(gen))
	case "PRT-3/sig":
		return PRTRunner(prt.StandardScheme3(gen).SignatureOnly())
	case "PRT-3/bist":
		return BISTRunner(prt.StandardScheme3(gen), 0)
	default:
		return PRTRunner(prt.StandardScheme4(gen))
	}
}

// FuzzWordKernelMatchesOracle: on any small word-oriented session, the
// compiled engine's per-fault verdicts equal the oracle's.  MATS+ runs
// first, so with dropping the PRT-family stage replays only its
// survivors, as in the benchmark's session.  The committed corpus
// under testdata/fuzz runs with every `go test`; `-fuzz` explores
// further.
func FuzzWordKernelMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeWordCase(data)
		u := fault.StandardUniverse(c.n, c.width, 16, 1).Faults
		faults := make([]fault.Fault, len(c.picks))
		for i, k := range c.picks {
			faults[i] = u[k%len(u)]
		}
		runners := []Runner{MarchRunner(march.MATSPlus(), march.DataBackgrounds(c.width)), c.runner()}
		run := func(engine Engine) *Session {
			p := Plan{
				Runners:  runners,
				Universe: fault.Universe{Name: "fuzz", Faults: faults},
				Memory:   womFactory(c.n, c.width),
				Workers:  2, Engine: engine, Drop: c.drop, KeepVectors: true,
				LaneWords: c.lanes,
			}
			return p.Run()
		}
		want, got := run(EngineOracle), run(EngineCompiled)
		label := fmt.Sprintf("%+v %v", c, faults)
		for _, st := range got.Stages {
			if st.Stats != nil && st.Entered > 0 && st.Stats.Engine != EngineCompiled {
				t.Fatalf("%s: stage %s ran on %s, not the compiled engine", label, st.Runner, st.Stats.Engine)
			}
		}
		assertSessionsEqual(t, label, want, got)
	})
}
