package fault

import (
	"testing"
)

// Every streaming builder must reproduce its materialized constructor
// exactly: same count, same faults, same order — whatever the pull
// granularity — and must be resumable (Reset rewinds).

func sourceCases() []struct {
	name string
	src  Source
	want []Fault
} {
	pairs := append(AdjacentPairs(9), SamplePairs(9, 4, 6, 3)...)
	return []struct {
		name string
		src  Source
		want []Fault
	}{
		{"single-cell", SingleCellSource(7, 4), SingleCellUniverse(7, 4)},
		{"stuck-open", StuckOpenSource(11), StuckOpenUniverse(11)},
		{"retention", RetentionSource(5, 3, 64), RetentionUniverse(5, 3, 64)},
		{"decoder", DecoderSource(9), DecoderUniverse(9)},
		{"coupling", CouplingSource(pairs), CouplingUniverse(pairs)},
		{"intra-word", IntraWordSource(6, 4), IntraWordUniverse(6, 4)},
		{"npsf", NPSFSource(30, 6, 3), NPSFUniverse(30, 6, 3)},
		{"anpsf", ANPSFSource(30, 6, 5), ANPSFUniverse(30, 6, 5)},
		{"slice", SliceSource(StuckOpenUniverse(4)), StuckOpenUniverse(4)},
		{"concat", ConcatSource(StuckOpenSource(3), DecoderSource(4)),
			append(StuckOpenUniverse(3), DecoderUniverse(4)...)},
	}
}

func drain(t *testing.T, s Source, chunk int) []Fault {
	t.Helper()
	var out []Fault
	buf := make([]Fault, chunk)
	for {
		n, ok := s.Next(buf)
		out = append(out, buf[:n]...)
		if !ok {
			break
		}
		if n == 0 {
			t.Fatal("source stalled: Next returned (0, true)")
		}
	}
	return out
}

func TestSourcesMatchMaterializedConstructors(t *testing.T) {
	for _, tc := range sourceCases() {
		n, exact := tc.src.Count()
		if !exact || n != len(tc.want) {
			t.Errorf("%s: Count = (%d, %v), want (%d, true)", tc.name, n, exact, len(tc.want))
		}
		for _, chunk := range []int{1, 7, 4096} {
			tc.src.Reset()
			got := drain(t, tc.src, chunk)
			if len(got) != len(tc.want) {
				t.Fatalf("%s chunk=%d: %d faults, want %d", tc.name, chunk, len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("%s chunk=%d: fault %d = %v, want %v", tc.name, chunk, i, got[i], tc.want[i])
				}
			}
		}
		// Reset mid-stream rewinds to the first fault.
		tc.src.Reset()
		buf := make([]Fault, 3)
		tc.src.Next(buf)
		tc.src.Reset()
		if n, _ := tc.src.Next(buf[:1]); n != 1 || buf[0] != tc.want[0] {
			t.Errorf("%s: Reset did not rewind (got %v)", tc.name, buf[0])
		}
	}
}

// Skip must be equivalent to discarding n faults via Next — the
// resume-seek contract — for every source shape, seek point and
// straddling pattern, including clamping past the end.
func TestSkipMatchesNextDiscard(t *testing.T) {
	for _, tc := range sourceCases() {
		n := len(tc.want)
		for _, skip := range []int{0, 1, 3, n / 2, n - 1, n, n + 7} {
			tc.src.Reset()
			got := tc.src.Skip(skip)
			want := skip
			if want > n {
				want = n
			}
			if got != want {
				t.Errorf("%s: Skip(%d) = %d, want %d", tc.name, skip, got, want)
				continue
			}
			rest := drain(t, tc.src, 5)
			if len(rest) != n-want {
				t.Fatalf("%s: %d faults after Skip(%d), want %d", tc.name, len(rest), skip, n-want)
			}
			for i, f := range rest {
				if f != tc.want[want+i] {
					t.Fatalf("%s: fault %d after Skip(%d) = %v, want %v", tc.name, i, skip, f, tc.want[want+i])
				}
			}
		}
		// Skip composes: two partial seeks equal one.
		if len(tc.want) >= 4 {
			tc.src.Reset()
			tc.src.Skip(1)
			tc.src.Skip(2)
			buf := make([]Fault, 1)
			if k, _ := tc.src.Next(buf); k != 1 || buf[0] != tc.want[3] {
				t.Errorf("%s: Skip(1)+Skip(2) landed on %v, want %v", tc.name, buf[0], tc.want[3])
			}
		}
		// A Skip that straddles concatenated parts must cross them (the
		// concat case lands mid-second-part above); negative n is a no-op.
		tc.src.Reset()
		if k := tc.src.Skip(-5); k != 0 {
			t.Errorf("%s: Skip(-5) = %d, want 0", tc.name, k)
		}
	}
}

func TestFullCouplingSourceExhaustive(t *testing.T) {
	const n = 5
	src := FullCouplingSource(n)
	count, exact := src.Count()
	if want := n * (n - 1) * 12; !exact || count != want {
		t.Fatalf("Count = (%d, %v), want (%d, true)", count, exact, want)
	}
	faults := Collect(src)
	// Every ordered (aggressor, victim) pair appears exactly 12 times,
	// with the per-pair sub-type order of CouplingUniverse.
	seen := make(map[[2]int]int)
	for _, f := range faults {
		switch c := f.(type) {
		case CFin:
			seen[[2]int{c.AggCell, c.VicCell}]++
		case CFid:
			seen[[2]int{c.AggCell, c.VicCell}]++
		case CFst:
			seen[[2]int{c.AggCell, c.VicCell}]++
		case BF:
			seen[[2]int{c.CellA, c.CellB}]++
		default:
			t.Fatalf("unexpected fault type %T", f)
		}
	}
	for a := 0; a < n; a++ {
		for v := 0; v < n; v++ {
			want := 12
			if a == v {
				want = 0
			}
			if seen[[2]int{a, v}] != want {
				t.Errorf("pair (%d,%d): %d faults, want %d", a, v, seen[[2]int{a, v}], want)
			}
		}
	}
	// The sub-type expansion matches CouplingUniverse's for the same
	// pair.
	want := CouplingUniverse([]CouplingPair{{AggCell: 0, VicCell: 1}})
	for i := 0; i < 12; i++ {
		if faults[i] != want[i] {
			t.Errorf("sub-type %d: %v, want %v", i, faults[i], want[i])
		}
	}
}

func TestBitSet(t *testing.T) {
	b := NewBitSet(100)
	for _, i := range []int{0, 63, 64, 99} {
		if b.Get(i) {
			t.Fatalf("fresh bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 3 {
		t.Fatalf("Clear failed: get=%v count=%d", b.Get(64), b.Count())
	}
	// Growth beyond the initial capacity; reads past the end are false.
	b.Set(1000)
	if !b.Get(1000) || b.Get(5000) {
		t.Fatal("grown Set/OOB Get wrong")
	}
	c := b.Clone()
	c.Clear(0)
	if !b.Get(0) || c.Get(0) {
		t.Fatal("Clone not independent")
	}
}

func TestBitViewMatchesWhere(t *testing.T) {
	faults := SingleCellUniverse(10, 1) // 40 faults
	keep := func(i int) bool { return i%3 != 1 }
	var want []int
	bits := NewBitSet(len(faults))
	for i := range faults {
		if keep(i) {
			bits.Set(i)
			want = append(want, i)
		}
	}
	v := NewBitView(faults, bits)
	if v.Len() != len(want) {
		t.Fatalf("bitview: len=%d want %d", v.Len(), len(want))
	}
	for i, u := range want {
		if v.At(i) != faults[u] || v.Index(i) != u {
			t.Fatalf("position %d: At=%v Index=%d, want At=%v Index=%d",
				i, v.At(i), v.Index(i), faults[u], u)
		}
	}
	// The view snapshots the bitmap: clearing a bit afterwards does not
	// move it.
	bits.Clear(v.Index(0))
	if v.Len() != len(want) {
		t.Fatal("BitView tracked a post-construction BitSet mutation")
	}
}

func TestBitViewFullAliasesBacking(t *testing.T) {
	faults := StuckOpenUniverse(70)
	bits := NewBitSet(len(faults))
	for i := range faults {
		bits.Set(i)
	}
	v := NewBitView(faults, bits)
	if v.Len() != len(faults) {
		t.Fatalf("full bitview: len=%d", v.Len())
	}
	for i := range faults {
		if v.Index(i) != i || v.At(i) != faults[i] {
			t.Fatalf("full bitview position %d: Index=%d", i, v.Index(i))
		}
	}
	// Bits beyond the backing slice are ignored.
	bits.Set(len(faults) + 5)
	if NewBitView(faults, bits).Len() != len(faults) {
		t.Error("out-of-range bit counted")
	}
}
