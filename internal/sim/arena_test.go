package sim

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/ram"
)

// TestLaneWordsFor pins the width rule at its thresholds: 8 words once
// every worker gets 16 full 512-machine batches, 4 once it gets 16
// full 256-machine ones, else 1.
func TestLaneWordsFor(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{0, 1, 1}, {4095, 1, 1}, {4096, 1, 4}, {8191, 1, 4}, {8192, 1, 8}, {1 << 30, 1, 8},
		{0, 2, 1}, {8191, 2, 1}, {8192, 2, 4}, {16383, 2, 4}, {16384, 2, 8}, {20000, 2, 8},
		{1000, 2, 1},
		{0, 8, 1}, {32767, 8, 1}, {32768, 8, 4}, {65535, 8, 4}, {65536, 8, 8},
	} {
		if got := LaneWordsFor(tc.n, tc.workers); got != tc.want {
			t.Errorf("LaneWordsFor(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestArenaRetargetAllocatesNothing: a warm arena alternating between
// two programs — Retarget, replay, Retarget back, replay — allocates
// nothing at any lane width.  Hook storage must survive the stage
// change, or every stage of a session regrows it.
func TestArenaRetargetAllocatesNothing(t *testing.T) {
	trA := recordMarch(t, march.MarchCMinus(), 24)
	trB := recordWOM(t, march.MarchB(), 16, 4)
	fA := fault.StandardUniverse(24, 1, 8, 3).Faults
	fB := fault.StandardUniverse(16, 4, 8, 5).Faults
	for _, w := range []int{1, 4, 8} {
		pA, err := Compile(trA, w)
		if err != nil {
			t.Fatal(err)
		}
		pB, err := Compile(trB, w)
		if err != nil {
			t.Fatal(err)
		}
		bA, bB := fA[:min(len(fA), pA.BatchFaults())], fB[:min(len(fB), pB.BatchFaults())]
		det := make([]uint64, w)
		a := NewArena(pA)
		cycle := func() {
			a.Retarget(pA)
			if err := pA.ReplayInto(a, bA, det); err != nil {
				t.Fatal(err)
			}
			a.Retarget(pB)
			if err := pB.ReplayInto(a, bB, det); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm-up: both programs' geometry and hook counts
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("w=%d: a Retarget/replay cycle allocates %.1f objects, want 0", w, allocs)
		}
	}
}

// orderHook is a hook whose identity is its install position.
type orderHook struct{ id int }

func (*orderHook) PreWrite(fault.LaneMemory, int, []uint64)  {}
func (*orderHook) PostWrite(fault.LaneMemory, int, []uint64) {}
func (*orderHook) OnRead(fault.LaneMemory, int, []uint64)    {}

// TestArenaHooksKeepInstallOrder: hooks installed interleaved across
// cells and lane groups come out of the sealed slabs grouped by entry,
// each entry's hooks in install order; a reset empties exactly the
// hooked entries and their flags.
func TestArenaHooksKeepInstallOrder(t *testing.T) {
	p, err := Compile(recordWOM(t, march.MarchB(), 16, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(p)
	for round, hooks := range []int{40, 7} {
		a.reset()
		wantW := map[int][]fault.WriteHook{}
		wantR := map[int][]fault.ReadHook{}
		for i := 0; i < hooks; i++ {
			h := &orderHook{id: i}
			cell, g := (i*5)%3+round, i%p.LaneWords()
			reg := &a.views[g]
			e := cell*p.LaneWords() + g
			switch i % 3 {
			case 0:
				reg.OnWriteTo(cell, h)
				wantW[e] = append(wantW[e], h)
			case 1:
				reg.OnReadOf(cell, h)
				wantR[e] = append(wantR[e], h)
			default:
				reg.OnEveryRead(h)
				wantR[a.everyAt+g] = append(wantR[a.everyAt+g], h)
			}
		}
		a.seal()
		for e := range a.wSpan {
			if got := a.writeHooksOf(e); fmt.Sprint(got) != fmt.Sprint(wantW[e]) {
				t.Errorf("round %d entry %d: write hooks %v, want %v", round, e, got, wantW[e])
			}
		}
		for e := range a.rSpan {
			if got := a.readHooksOf(e); fmt.Sprint(got) != fmt.Sprint(wantR[e]) {
				t.Errorf("round %d entry %d: read hooks %v, want %v", round, e, got, wantR[e])
			}
		}
		for c := 0; c < p.Size(); c++ {
			var w, r bool
			for g := 0; g < p.LaneWords(); g++ {
				w = w || len(wantW[c*p.LaneWords()+g]) > 0
				r = r || len(wantR[c*p.LaneWords()+g]) > 0
			}
			if got := a.flags[c]&flagWrite != 0; got != w {
				t.Errorf("round %d cell %d: write flag %v, want %v", round, c, got, w)
			}
			if got := a.flags[c]&flagRead != 0; got != r {
				t.Errorf("round %d cell %d: read flag %v, want %v", round, c, got, r)
			}
		}
	}
}

// TestSharedAggressorMatchesOracle: every coupling fault into and out
// of cell 0 in one batch, so dozens of hooks per lane group share one
// cell's hook entries — the verdicts must match the oracle fault by
// fault at every lane width.
func TestSharedAggressorMatchesOracle(t *testing.T) {
	const n = 24
	test := march.MATSPlus() // misses some coupling faults: verdicts are mixed
	var pairs []fault.CouplingPair
	for v := 1; v < n; v++ {
		pairs = append(pairs, fault.CouplingPair{AggCell: 0, VicCell: v}, fault.CouplingPair{AggCell: v, VicCell: 0})
	}
	faults := fault.CouplingUniverse(pairs)
	want := make([]bool, len(faults))
	detected := 0
	for i, f := range faults {
		want[i] = march.Run(test, f.Inject(ram.NewBOM(n)), 0).Detected
		if want[i] {
			detected++
		}
	}
	if detected == 0 || detected == len(faults) {
		t.Fatalf("oracle detects %d of %d faults; the check needs mixed verdicts", detected, len(faults))
	}
	tr := recordMarch(t, test, n)
	for _, w := range []int{1, 4, 8} {
		p, err := Compile(tr, w)
		if err != nil {
			t.Fatal(err)
		}
		a := NewArena(p)
		det := make([]uint64, w)
		for lo := 0; lo < len(faults); lo += p.BatchFaults() {
			hi := min(lo+p.BatchFaults(), len(faults))
			if err := p.ReplayInto(a, faults[lo:hi], det); err != nil {
				t.Fatal(err)
			}
			for i := lo; i < hi; i++ {
				l := i - lo
				if got := det[l/BatchSize]>>uint(l%BatchSize)&1 == 1; got != want[i] {
					t.Errorf("w=%d fault %s: replay detected=%v oracle=%v", w, faults[i], got, want[i])
				}
			}
		}
	}
}
