package fault

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ram"
)

// collapseReference is the map-based collapser the Collapser replaced,
// kept as the property tests' reference: the fault value itself (after
// the rules below rewrite it) is the class key, hashed through a
// map[any]int built fresh per call.  It panics on fault types that are
// not comparable, which the Collapser handles as singleton classes, so
// the reference is only ever fed the built-in models.
func collapseReference(v View, sum *TraceSummary) Collapsed {
	n := v.Len()
	col := Collapsed{Map: make([]int, n)}
	index := make(map[any]int, n)
	for i := 0; i < n; i++ {
		f := v.At(i)
		key := referenceKey(f, sum)
		if r, ok := index[key]; ok {
			col.Map[i] = r
			continue
		}
		r := len(col.Reps)
		col.Reps = append(col.Reps, f)
		index[key] = r
		col.Map[i] = r
	}
	return col
}

type referenceBenign struct{}

type referenceSAFPair struct{ cell, bit int }

// referenceKey is the map collapser's key.  Its SAF rule carries the
// bit-range fix (0 <= Bit < Width) so reference and Collapser agree on
// every input; TestCollapseSAFBitOutOfRange pins the fix itself.
func referenceKey(f Fault, sum *TraceSummary) any {
	switch t := f.(type) {
	case SAF:
		if sum != nil && !sum.Affine {
			idx := t.Cell*sum.Width + t.Bit
			if t.Bit >= 0 && t.Bit < sum.Width && idx >= 0 && idx < len(sum.Expect) {
				e := sum.Expect[idx]
				if p := e & 3; p == 3 || (p == 0 && e&ExpectFolded == 0) {
					return referenceSAFPair{t.Cell, t.Bit}
				}
			}
		}
		return t
	case BF:
		if t.CellA == t.CellB && t.BitA == t.BitB {
			return referenceBenign{}
		}
		if t.CellA > t.CellB || (t.CellA == t.CellB && t.BitA > t.BitB) {
			t.CellA, t.CellB = t.CellB, t.CellA
			t.BitA, t.BitB = t.BitB, t.BitA
		}
		return t
	case AF:
		if t.Kind != AFNone && t.Addr == t.Target {
			return referenceBenign{}
		}
		return t
	case SNPSF:
		if !t.Nb.Complete() {
			return referenceBenign{}
		}
		return t
	case ANPSF:
		if !t.Nb.Complete() {
			return referenceBenign{}
		}
		return t
	}
	return f
}

func TestCollapseDeduplicatesIdenticalFaults(t *testing.T) {
	faults := []Fault{
		SAF{Cell: 3, Bit: 1, Value: 1},
		TF{Cell: 2, Up: true},
		SAF{Cell: 3, Bit: 1, Value: 1}, // duplicate of 0
		TF{Cell: 2, Up: true},          // duplicate of 1
	}
	col := Collapse(faults, nil)
	if len(col.Reps) != 2 {
		t.Fatalf("got %d representatives, want 2", len(col.Reps))
	}
	want := []int{0, 1, 0, 1}
	for i, r := range col.Map {
		if r != want[i] {
			t.Errorf("Map[%d] = %d, want %d", i, r, want[i])
		}
	}
}

func TestCollapseBridgingSymmetry(t *testing.T) {
	a := BF{CellA: 2, BitA: 1, CellB: 7, BitB: 0, And: true}
	b := BF{CellA: 7, BitA: 0, CellB: 2, BitB: 1, And: true} // mirrored
	c := BF{CellA: 7, BitA: 0, CellB: 2, BitB: 1, And: false}
	col := Collapse([]Fault{a, b, c}, nil)
	if len(col.Reps) != 2 {
		t.Fatalf("got %d representatives, want 2 (mirrored AND-bridges collapse)", len(col.Reps))
	}
	if col.Map[0] != col.Map[1] {
		t.Errorf("mirrored bridges map to distinct reps %d, %d", col.Map[0], col.Map[1])
	}
	if col.Map[2] == col.Map[0] {
		t.Error("AND and OR bridges must stay distinct")
	}
}

func TestCollapseBenignFaults(t *testing.T) {
	edge := GridNeighbourhood(0, 36, 6) // corner: N and W missing
	if edge.Complete() {
		t.Fatal("test premise broken: corner neighbourhood is complete")
	}
	interior := GridNeighbourhood(7, 36, 6)
	faults := []Fault{
		SNPSF{Nb: edge, Pattern: 5, Value: 1},               // never matches
		ANPSF{Nb: edge, Trigger: 0, Up: true, Value: 1},     // trigger missing
		AF{Kind: AFAlias, Addr: 4, Target: 4},               // self-alias = identity
		BF{CellA: 3, BitA: 2, CellB: 3, BitB: 2},            // self-bridge = identity
		SNPSF{Nb: interior, Pattern: 5, Value: 1},           // real
		ANPSF{Nb: interior, Trigger: 0, Up: true, Value: 1}, // real
	}
	col := Collapse(faults, nil)
	if len(col.Reps) != 3 {
		t.Fatalf("got %d representatives, want 3 (one benign class + two real faults)", len(col.Reps))
	}
	benign := col.Map[0]
	for i := 1; i <= 3; i++ {
		if col.Map[i] != benign {
			t.Errorf("fault %d not in the benign class", i)
		}
	}
	if col.Map[4] == benign || col.Map[5] == benign {
		t.Error("interior NPSF faults wrongly classified benign")
	}
}

func TestCollapseSAFPairingUnderSummary(t *testing.T) {
	// Width-1 summary: cell 0 sees both polarities checked, cell 1 only
	// polarity 1, cell 2 none.
	sum := &TraceSummary{Width: 1, Expect: []uint8{0b11, 0b10, 0b00}}
	faults := []Fault{
		SAF{Cell: 0, Value: 0}, SAF{Cell: 0, Value: 1}, // both detected → pair
		SAF{Cell: 1, Value: 0}, SAF{Cell: 1, Value: 1}, // outcomes differ → keep apart
		SAF{Cell: 2, Value: 0}, SAF{Cell: 2, Value: 1}, // both undetected → pair
	}
	col := Collapse(faults, sum)
	if len(col.Reps) != 4 {
		t.Fatalf("got %d representatives, want 4", len(col.Reps))
	}
	if col.Map[0] != col.Map[1] {
		t.Error("SA0/SA1 on a both-polarity bit must collapse")
	}
	if col.Map[2] == col.Map[3] {
		t.Error("SA0/SA1 on a single-polarity bit must stay apart")
	}
	if col.Map[4] != col.Map[5] {
		t.Error("SA0/SA1 on an unchecked bit must collapse")
	}

	// The same universe under an affine trace must not pair at all.
	sum.Affine = true
	if col := Collapse(faults, sum); len(col.Reps) != 6 {
		t.Fatalf("affine trace: got %d representatives, want 6 (SAF rule disabled)", len(col.Reps))
	}
}

// TestCollapseSAFBitOutOfRange: the SAF rule indexes Expect by
// cell*Width+bit, so a bit outside [0, Width) would read another
// cell's entry — SAF{Cell: 1, Bit: -1} landing on cell 0's last bit —
// and pair on that bit's polarities.  Such faults must never pair.
func TestCollapseSAFBitOutOfRange(t *testing.T) {
	// Width 2: bits c0.b1 and c1.b1 check both polarities, the others
	// only polarity 1.
	sum := &TraceSummary{Width: 2, Expect: []uint8{0b10, 0b11, 0b10, 0b11}}
	faults := []Fault{
		SAF{Cell: 1, Bit: -1, Value: 0}, SAF{Cell: 1, Bit: -1, Value: 1}, // aliases c0.b1
		SAF{Cell: 0, Bit: 3, Value: 0}, SAF{Cell: 0, Bit: 3, Value: 1}, // aliases c1.b1
		SAF{Cell: 0, Bit: 1, Value: 0}, SAF{Cell: 0, Bit: 1, Value: 1}, // the real pair
	}
	col := Collapse(faults, sum)
	if len(col.Reps) != 5 {
		t.Fatalf("got %d representatives, want 5 (only c0.b1 pairs)", len(col.Reps))
	}
	if col.Map[0] == col.Map[1] || col.Map[2] == col.Map[3] {
		t.Error("SA0/SA1 on an out-of-range bit paired through another cell's summary entry")
	}
	if col.Map[4] != col.Map[5] {
		t.Error("SA0/SA1 on a both-polarity bit must collapse")
	}
}

func TestCollapseSAFPairingFoldedGate(t *testing.T) {
	// Cell 0: unchecked but feeding a signature observer — SA0 and SA1
	// fold different error patterns and may alias differently, so they
	// must stay split.  Cell 1: both polarities checked AND folded —
	// both are detected by the checked reads whatever the register
	// does, so they still pair.
	sum := &TraceSummary{Width: 1, Expect: []uint8{ExpectFolded, 0b11 | ExpectFolded}}
	faults := []Fault{
		SAF{Cell: 0, Value: 0}, SAF{Cell: 0, Value: 1},
		SAF{Cell: 1, Value: 0}, SAF{Cell: 1, Value: 1},
	}
	col := Collapse(faults, sum)
	if len(col.Reps) != 3 {
		t.Fatalf("got %d representatives, want 3", len(col.Reps))
	}
	if col.Map[0] == col.Map[1] {
		t.Error("SA0/SA1 on a folded unchecked bit must stay apart")
	}
	if col.Map[2] != col.Map[3] {
		t.Error("SA0/SA1 on a both-polarity checked bit must pair even when folded")
	}
}

func TestCollapsedExpand(t *testing.T) {
	col := Collapsed{
		Reps: []Fault{SAF{}, TF{}},
		Map:  []int{0, 1, 0, 1, 1},
	}
	got := make([]bool, len(col.Map))
	col.ExpandInto(got, []bool{true, false})
	want := []bool{true, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpandInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if col.Saved() != 3 {
		t.Fatalf("Saved = %d, want 3", col.Saved())
	}
}

// notedSAF is a fault type outside the built-in models that is not
// comparable: the embedded SAF supplies the behaviour, the slice makes
// a map key of it panic with "hash of unhashable type".
type notedSAF struct {
	SAF
	notes []string
}

// TestCollapseUnknownFaultTypes: a fault type the collapser has no key
// for is collapsed without touching its value — each instance its own
// class, even beside an identical twin — and the built-in faults
// around it still collapse normally.
func TestCollapseUnknownFaultTypes(t *testing.T) {
	twin := notedSAF{SAF: SAF{Cell: 1, Value: 1}, notes: []string{"twin"}}
	faults := []Fault{
		twin,
		SAF{Cell: 2},
		twin,
		SAF{Cell: 2}, // duplicate of 1
		notedSAF{SAF: SAF{Cell: 2}},
	}
	for _, sum := range []*TraceSummary{nil, {Width: 1, Expect: []uint8{3, 3, 3}}} {
		col := Collapse(faults, sum)
		want := []int{0, 1, 2, 1, 3}
		if len(col.Reps) != 4 {
			t.Fatalf("got %d representatives, want 4", len(col.Reps))
		}
		for i, r := range col.Map {
			if r != want[i] {
				t.Errorf("Map[%d] = %d, want %d", i, r, want[i])
			}
		}
	}
}

// randomUniverse draws a mixed universe over all eleven built-in models
// on a small geometry (6 cells × 2 bits, a 4×4 NPSF grid), so classes
// collide often: exact duplicates, mirrored bridges and benign AF, BF
// and NPSF instances are injected on purpose.  SAF bits range over
// [-1, 3) to exercise the out-of-range guard.
func randomUniverse(rng *rand.Rand, n int) []Fault {
	const cells, bits = 6, 2
	cell := func() int { return rng.Intn(cells) }
	bit := func() int { return rng.Intn(bits) }
	val := func() ram.Word { return ram.Word(rng.Intn(2)) }
	nb := func() Neighbourhood { return GridNeighbourhood(rng.Intn(16), 16, 4) }
	out := make([]Fault, 0, n)
	for len(out) < n {
		var f Fault
		switch k := rng.Intn(14); k {
		case 0:
			f = SAF{Cell: cell(), Bit: rng.Intn(4) - 1, Value: val()}
		case 1:
			f = TF{Cell: cell(), Bit: bit(), Up: rng.Intn(2) == 0}
		case 2:
			f = SOF{Cell: cell()}
		case 3:
			f = DRF{Cell: cell(), Bit: bit(), Decay: val(), Delay: uint64(rng.Intn(3))}
		case 4:
			f = AF{Kind: AFKind(rng.Intn(3)), Addr: cell(), Target: cell()}
		case 5:
			f = CFin{AggCell: cell(), AggBit: bit(), VicCell: cell(), VicBit: bit(), Up: rng.Intn(2) == 0}
		case 6:
			f = CFid{AggCell: cell(), AggBit: bit(), VicCell: cell(), VicBit: bit(), Up: rng.Intn(2) == 0, Value: val()}
		case 7:
			f = CFst{AggCell: cell(), AggBit: bit(), VicCell: cell(), VicBit: bit(), AggValue: val(), Value: val()}
		case 8:
			f = BF{CellA: cell(), BitA: bit(), CellB: cell(), BitB: bit(), And: rng.Intn(2) == 0}
		case 9:
			f = SNPSF{Nb: nb(), Pattern: ram.Word(rng.Intn(16)), Value: val()}
		case 10:
			f = ANPSF{Nb: nb(), Trigger: rng.Intn(4), Up: rng.Intn(2) == 0, Pattern: ram.Word(rng.Intn(16)), Value: val()}
		default:
			if len(out) == 0 {
				continue
			}
			// An exact duplicate of an earlier fault, or, for a bridge,
			// its mirror image.
			f = out[rng.Intn(len(out))]
			if b, ok := f.(BF); ok && k == 11 {
				f = BF{CellA: b.CellB, BitA: b.BitB, CellB: b.CellA, BitB: b.BitA, And: b.And}
			}
		}
		out = append(out, f)
	}
	return out
}

// collapseSummaries returns the summaries the property test sweeps:
// none (trace-independent rules only), an affine trace (SAF rule
// off), and non-affine width-2 summaries whose Expect entries mix both
// polarities, one, neither, and the folded flag — one of them shorter
// than the geometry, so high cells fall outside it.
func collapseSummaries(rng *rand.Rand) []*TraceSummary {
	expect := func(n int) []uint8 {
		e := make([]uint8, n)
		for i := range e {
			e[i] = uint8(rng.Intn(4))
			if rng.Intn(3) == 0 {
				e[i] |= ExpectFolded
			}
		}
		return e
	}
	return []*TraceSummary{
		nil,
		{Width: 2, Affine: true, Expect: expect(12)},
		{Width: 2, Expect: expect(12)},
		{Width: 2, Expect: expect(7)},
	}
}

func sameCollapse(t *testing.T, what string, got, want Collapsed) {
	t.Helper()
	if len(got.Reps) != len(want.Reps) || len(got.Map) != len(want.Map) {
		t.Fatalf("%s: got %d reps/%d map, want %d/%d", what,
			len(got.Reps), len(got.Map), len(want.Reps), len(want.Map))
	}
	for i := range want.Reps {
		if got.Reps[i] != want.Reps[i] {
			t.Fatalf("%s: rep %d = %v, want %v", what, i, got.Reps[i], want.Reps[i])
		}
	}
	for i := range want.Map {
		if got.Map[i] != want.Map[i] {
			t.Fatalf("%s: Map[%d] = %d, want %d", what, i, got.Map[i], want.Map[i])
		}
	}
}

// TestCollapserMatchesReference: one Collapser, reused across chunks of
// growing, shrinking and empty sizes — over whole and filtered views,
// and across a forced generation-counter wrap —
// partitions every randomized universe exactly as the map-based
// reference does: same representatives in the same first-occurrence
// order, same Map.
func TestCollapserMatchesReference(t *testing.T) {
	sizes := []int{0, 5, 300, 1, 0, 1200, 17, 2500, 3, 0, 64, 900}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, sum := range collapseSummaries(rng) {
			var c Collapser
			for _, n := range sizes {
				faults := randomUniverse(rng, n)
				sameCollapse(t, "span", c.CollapseView(Span(faults), sum), collapseReference(Span(faults), sum))
				if n == 2500 {
					// The table grew for this chunk, so the slots just
					// written carry generation 1.  Wrap the counter: the
					// view call below is generation 1 again, and a table
					// left uncleared would read those slots as live.
					c.gen = math.MaxUint32
				}
				v := keepView(faults, func(i int) bool { return i%3 != 1 })
				sameCollapse(t, "view", c.CollapseView(v, sum), collapseReference(v, sum))
			}
		}
	}
}

// TestCollapserHashCollisionNeverMerges: a slot whose stored hash
// matches is only a candidate — the occupant's key is re-derived and
// compared exactly.  The test forges a full collision: a's slot is
// moved to where b's probe starts and stamped with b's hash.
func TestCollapserHashCollisionNeverMerges(t *testing.T) {
	a, b := SAF{Cell: 1}, SAF{Cell: 2}
	ka, _ := collapseKeyOf(a, nil)
	kb, _ := collapseKeyOf(b, nil)
	var c Collapser
	c.reset(2)
	if r := c.class(a, nil); r != 0 {
		t.Fatalf("first class = %d, want 0", r)
	}
	ha, hb := ka.hash(), kb.hash()
	c.table[ha>>c.shift] = collapseSlot{}
	c.table[hb>>c.shift] = collapseSlot{gen: c.gen, hash: uint32(hb), rep: 0}
	if r := c.class(b, nil); r != 1 {
		t.Fatalf("b joined class %d on a forged hash match, want its own class 1", r)
	}
}

// collapseChunks materializes the stream-cf universe, the exhaustive
// coupling faults of a 256-cell array, as DefaultChunk-sized chunks.
func collapseChunks() [][]Fault {
	const chunk = 8192
	all := Collect(FullCouplingSource(256))
	var out [][]Fault
	for lo := 0; lo < len(all); lo += chunk {
		out = append(out, all[lo:min(lo+chunk, len(all))])
	}
	return out
}

// TestCollapserSteadyStateAllocs: once a Collapser has seen a full
// chunk, collapsing further chunks of that size allocates nothing.
func TestCollapserSteadyStateAllocs(t *testing.T) {
	src := FullCouplingSource(64)
	chunks := make([][]Fault, 4)
	for i := range chunks {
		chunks[i] = make([]Fault, 8192)
		src.Next(chunks[i])
	}
	views := make([]View, len(chunks))
	for i, ch := range chunks {
		views[i] = Span(ch)
	}
	sum := &TraceSummary{Width: 1, Expect: make([]uint8, 64)}
	var c Collapser
	det, rep := make([]bool, 8192), make([]bool, 8192)
	c.CollapseView(views[0], sum)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		col := c.CollapseView(views[i%len(views)], sum)
		col.ExpandInto(det, rep)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state chunk collapse: %v allocs, want 0", allocs)
	}
}

// BenchmarkCollapse isolates collapse over the stream-cf universe: the
// exhaustive coupling faults of a 256-cell array (783,360 faults)
// collapsed in 8192-fault chunks by one reused Collapser, source
// generation excluded.  One op is one chunk.  Chunks of this family
// keep 99.93% of their faults, which is why streams are not collapsed.
func BenchmarkCollapse(b *testing.B) {
	var views []View
	for _, ch := range collapseChunks() {
		views = append(views, Span(ch))
	}
	sum := &TraceSummary{Width: 1, Expect: make([]uint8, 256)}
	var c Collapser
	c.CollapseView(views[0], sum) // size the buffers: ops measure steady state
	faults := 0
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		v := views[i%len(views)]
		c.CollapseView(v, sum)
		faults += v.Len()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(faults), "ns/fault")
}
