package fault

import "testing"

// keepView is the BitView of the positions keep accepts.
func keepView(faults []Fault, keep func(i int) bool) View {
	bits := NewBitSet(len(faults))
	for i := range faults {
		if keep(i) {
			bits.Set(i)
		}
	}
	return NewBitView(faults, bits)
}

func TestViewSpanIsIdentity(t *testing.T) {
	faults := SingleCellUniverse(4, 1)
	v := Span(faults)
	if v.Len() != len(faults) {
		t.Fatalf("span: len=%d want %d", v.Len(), len(faults))
	}
	for i := range faults {
		if v.At(i) != faults[i] || v.Index(i) != i {
			t.Fatalf("position %d: At=%v Index=%d", i, v.At(i), v.Index(i))
		}
	}
}

// TestViewWhereComposes: narrowing a survivor view again — the session
// clearing later detections from the same bitmap — keeps indices as
// positions in the ORIGINAL slice, not in the intermediate view.
func TestViewWhereComposes(t *testing.T) {
	faults := SingleCellUniverse(8, 1) // 32 faults
	bits := NewBitSet(len(faults))
	for i := 0; i < len(faults); i += 2 {
		bits.Set(i)
	}
	even := NewBitView(faults, bits)
	if even.Len() != 16 {
		t.Fatalf("even view len = %d", even.Len())
	}
	for i := 1; i < even.Len(); i += 2 {
		bits.Clear(even.Index(i))
	}
	fourth := NewBitView(faults, bits)
	if fourth.Len() != 8 {
		t.Fatalf("fourth view len = %d", fourth.Len())
	}
	for i := 0; i < fourth.Len(); i++ {
		if want := 4 * i; fourth.Index(i) != want || fourth.At(i) != faults[want] {
			t.Fatalf("position %d: Index=%d want %d", i, fourth.Index(i), want)
		}
	}
}

// TestCollapseViewMatchesCollapseOnSubset: collapsing a view must
// equal collapsing the materialised subset — same representatives,
// same map, exact expansion.
func TestCollapseViewMatchesCollapseOnSubset(t *testing.T) {
	faults := SingleCellUniverse(6, 1)
	faults = append(faults, faults[:4]...) // duplicates collapse
	v := keepView(faults, func(i int) bool { return i%3 != 0 })
	gathered := make([]Fault, 0, v.Len())
	for i := 0; i < v.Len(); i++ {
		gathered = append(gathered, v.At(i))
	}
	got := CollapseView(v, nil)
	want := Collapse(gathered, nil)
	if len(got.Reps) != len(want.Reps) || len(got.Map) != len(want.Map) {
		t.Fatalf("shape differs: got %d reps/%d map, want %d/%d",
			len(got.Reps), len(got.Map), len(want.Reps), len(want.Map))
	}
	for i := range want.Reps {
		if got.Reps[i] != want.Reps[i] {
			t.Errorf("rep %d: %v != %v", i, got.Reps[i], want.Reps[i])
		}
	}
	for i := range want.Map {
		if got.Map[i] != want.Map[i] {
			t.Errorf("map %d: %d != %d", i, got.Map[i], want.Map[i])
		}
	}
	// Expansion stays per view position.
	rep := make([]bool, len(got.Reps))
	for i := range rep {
		rep[i] = i%2 == 0
	}
	a, b := make([]bool, len(got.Map)), make([]bool, len(want.Map))
	got.ExpandInto(a, rep)
	want.ExpandInto(b, rep)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("expanded %d differs", i)
		}
	}
}

// TestCollapseViewDropsDeadRepresentatives: a class whose every member
// left the view contributes no representative.
func TestCollapseViewDropsDeadRepresentatives(t *testing.T) {
	faults := []Fault{
		SAF{Cell: 0, Bit: 0, Value: 0},
		SAF{Cell: 0, Bit: 0, Value: 0}, // duplicate of 0
		SAF{Cell: 1, Bit: 0, Value: 1},
	}
	full := Collapse(faults, nil)
	if len(full.Reps) != 2 {
		t.Fatalf("full collapse reps = %d, want 2", len(full.Reps))
	}
	v := keepView(faults, func(i int) bool { return i == 2 })
	col := CollapseView(v, nil)
	if len(col.Reps) != 1 || col.Reps[0] != faults[2] {
		t.Fatalf("dead class not dropped: reps = %v", col.Reps)
	}
}
