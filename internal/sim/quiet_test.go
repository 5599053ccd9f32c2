package sim

import (
	"fmt"
	"testing"

	"repro/internal/bist"
	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/prt"
	"repro/internal/ram"
)

// Quiet-batch exactness: the word kernels skip recurrence terms of
// reads that match the clean run in every lane, folds of a zero error
// into a clear accumulator, and compare points of a clear accumulator.
// These tests pin the batches where that matters — wholly quiet, one
// loud lane among quiet ones, and a lane that turns loud only after a
// long quiet prefix — against the per-fault oracle, at every lane
// width, for the affine (PRT), signature-only and MISR-observer
// (BIST) word programs.

// wordScheme is a word-oriented test algorithm run directly on a
// memory, reporting detection.
type wordScheme struct {
	name string
	run  func(ram.Memory) (bool, uint64)
}

func wordSchemes(t testing.TB) []wordScheme {
	gen := prt.PaperWOMConfig().Gen
	prtRun := func(s prt.Scheme) func(ram.Memory) (bool, uint64) {
		return func(mem ram.Memory) (bool, uint64) {
			r, err := s.Run(mem)
			if err != nil {
				t.Fatal(err)
			}
			return r.Detected, r.Ops
		}
	}
	return []wordScheme{
		{"PRT-3", prtRun(prt.StandardScheme3(gen))},
		{"PRT-3/sig", prtRun(prt.StandardScheme3(gen).SignatureOnly())},
		{"PRT-3/bist", func(mem ram.Memory) (bool, uint64) {
			pass, cycles, err := bist.RunAllCompressed(prt.StandardScheme3(gen), mem, 0)
			if err != nil {
				t.Fatal(err)
			}
			return !pass, cycles
		}},
	}
}

// firstLoudRead returns the index, among the reads of the clean trace,
// of the first read at which the faulty machine senses a different
// value — or -1 when every read it performs matches the clean run.
// The schemes are non-adaptive until they detect, so the faulty run's
// reads align with the clean trace's.
func firstLoudRead(clean *Trace, f fault.Fault, s wordScheme) int {
	faulty, _, _ := Record(f.Inject(ram.NewWOM(clean.Size, clean.Width)), s.run)
	var cr, fr []ram.Word
	for _, op := range clean.Ops {
		if op.Kind == ram.OpRead {
			cr = append(cr, op.Data)
		}
	}
	for _, op := range faulty.Ops {
		if op.Kind == ram.OpRead {
			fr = append(fr, op.Data)
		}
	}
	for i := 0; i < len(cr) && i < len(fr); i++ {
		if cr[i] != fr[i] {
			return i
		}
	}
	return -1
}

func cleanReads(tr *Trace) int {
	n := 0
	for _, op := range tr.Ops {
		if op.Kind == ram.OpRead {
			n++
		}
	}
	return n
}

// compiledVerdicts replays one batch and returns per-fault verdicts.
func compiledVerdicts(t *testing.T, p *Program, a *Arena, faults []fault.Fault) []bool {
	t.Helper()
	det := make([]uint64, p.LaneWords())
	if err := p.ReplayInto(a, faults, det); err != nil {
		t.Fatal(err)
	}
	out := make([]bool, len(faults))
	for i := range faults {
		out[i] = det[i/BatchSize]>>uint(i%BatchSize)&1 == 1
	}
	return out
}

func TestQuietBatchesMatchOracle(t *testing.T) {
	const n, m = 32, 4
	for _, s := range wordSchemes(t) {
		t.Run(s.name, func(t *testing.T) {
			tr, detected, _ := Record(ram.NewWOM(n, m), s.run)
			if detected {
				t.Fatal("clean run detected a fault")
			}
			oracle := map[fault.Fault]bool{}
			verdict := func(f fault.Fault) bool {
				if v, ok := oracle[f]; ok {
					return v
				}
				v, _ := s.run(f.Inject(ram.NewWOM(n, m)))
				oracle[f] = v
				return v
			}

			// Quiet faults: retention faults that never outlast their
			// delay hook every read of their cell but never change one.
			var quiet []fault.Fault
			for c := 0; c < n; c += 5 {
				for b := 0; b < m; b++ {
					quiet = append(quiet, fault.DRF{Cell: c, Bit: b, Decay: ram.Word(c & 1), Delay: 1 << 40})
				}
			}
			for _, f := range quiet {
				if i := firstLoudRead(tr, f, s); i >= 0 {
					t.Fatalf("%s is not quiet: read %d differs", f, i)
				}
			}
			loud := fault.Fault(fault.SAF{Cell: 5, Bit: 1, Value: 1})
			if firstLoudRead(tr, loud, s) < 0 {
				t.Fatalf("%s never activates", loud)
			}
			// A late fault: of the standard universe's detected faults
			// whose first wrong read falls in the middle third of the run
			// (so its errors still propagate through later recurrence
			// writes and folds), the one that activates latest.
			reads := cleanReads(tr)
			var late fault.Fault
			lateAt := -1
			for _, f := range fault.StandardUniverse(n, m, 64, 3).Faults {
				if i := firstLoudRead(tr, f, s); i > lateAt && i <= 2*reads/3 && verdict(f) {
					late, lateAt = f, i
				}
			}
			if lateAt < reads/3 {
				t.Fatalf("no late-activating fault found: latest first loud read %d of %d", lateAt, reads)
			}
			t.Logf("late fault %s: first loud read %d of %d", late, lateAt, reads)

			for _, w := range []int{1, 4, 8} {
				p, err := Compile(tr, w)
				if err != nil {
					t.Fatal(err)
				}
				a := NewArena(p)
				batch := func(mutate func([]fault.Fault)) []fault.Fault {
					fs := make([]fault.Fault, p.BatchFaults())
					for i := range fs {
						fs[i] = quiet[i%len(quiet)]
					}
					mutate(fs)
					return fs
				}
				cases := []struct {
					name   string
					faults []fault.Fault
				}{
					{"all-quiet", batch(func([]fault.Fault) {})},
					{"one-loud", batch(func(fs []fault.Fault) { fs[len(fs)/2+3] = loud })},
					{"late", batch(func(fs []fault.Fault) { fs[len(fs)-1] = late })},
				}
				for _, tc := range cases {
					label := fmt.Sprintf("W=%d %s", w, tc.name)
					got := compiledVerdicts(t, p, a, tc.faults)
					for i, f := range tc.faults {
						if want := verdict(f); got[i] != want {
							t.Errorf("%s: fault %d (%s): compiled %v, oracle %v", label, i, f, got[i], want)
						}
					}
					if tc.name != "all-quiet" {
						continue
					}
					// The kernel's own view of the quiet batch: no history
					// slot turned loud and no accumulator turned live.
					for slot, l := range a.loud {
						if l {
							t.Errorf("%s: history slot %d marked loud", label, slot)
						}
					}
					for obs, l := range a.accLive {
						if l {
							t.Errorf("%s: observer %d accumulator marked live", label, obs)
						}
					}
				}
			}
		})
	}
}

// TestQuietFoldsKeepAliasing: a fold of a zero error into a live
// accumulator still advances it (acc ← step·acc), so MISR aliasing
// stays exact across quiet reads.  One stuck bit is read twice,
// fifteen folds apart, into a GF(2^4) MISR whose multiplier has order
// 15: the two errors cancel and the fault escapes, in hardware and in
// replay — but only if the fourteen quiet folds between them still
// multiply.  A second machine whose repeat lands one fold earlier
// does not alias and must be detected.
func TestQuietFoldsKeepAliasing(t *testing.T) {
	const n, m = 16, 4
	f := gf.NewField(m)
	alpha := f.Generator()
	step := f.ConstMulMatrix(alpha).Rows
	tap := gf.IdentityMatrix(m).Rows
	// reads of cell 0, the other cells in order, then cell 0 again
	// after gap folds; cell 15 pads the shorter sequence.
	run := func(gap int) func(ram.Memory) (bool, uint64) {
		return func(mem ram.Memory) (bool, uint64) {
			var ops uint64
			for a := 0; a < n; a++ {
				mem.Write(a, ram.Word(a)&ram.Word(f.Mask()))
				ops++
			}
			order := []int{0}
			for a := 1; a < gap; a++ {
				order = append(order, a)
			}
			order = append(order, 0)
			for len(order) < n {
				order = append(order, n-1)
			}
			var sig, want gf.Elem
			for _, a := range order {
				v := gf.Elem(mem.Read(a))
				ram.AnnotateFold(mem, 0, step, tap)
				ops++
				sig = f.Add(f.Mul(alpha, sig), v)
				want = f.Add(f.Mul(alpha, want), gf.Elem(a)&f.Mask())
			}
			ram.AnnotateObserved(mem, 0)
			return sig != want, ops
		}
	}
	stuck := fault.SAF{Cell: 0, Bit: 0, Value: 1} // cell 0 holds 0: both reads err
	for _, tc := range []struct {
		gap  int
		want bool
	}{{15, false}, {14, true}} {
		tr, detected, _ := Record(ram.NewWOM(n, m), run(tc.gap))
		if detected {
			t.Fatal("clean run detected a fault")
		}
		if oracle, _ := run(tc.gap)(stuck.Inject(ram.NewWOM(n, m))); oracle != tc.want {
			t.Fatalf("gap %d: oracle detected=%v, want %v", tc.gap, oracle, tc.want)
		}
		for _, w := range []int{1, 4, 8} {
			p, err := Compile(tr, w)
			if err != nil {
				t.Fatal(err)
			}
			got := compiledVerdicts(t, p, NewArena(p), []fault.Fault{stuck})
			if got[0] != tc.want {
				t.Errorf("gap %d W=%d: compiled detected=%v, oracle %v", tc.gap, w, got[0], tc.want)
			}
		}
	}
}
