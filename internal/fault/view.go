package fault

// View is a cheap subset of a fault slice: no fault instances are
// copied, only the shared backing slice plus a subset description.
// The campaign session layer narrows a universe test after test
// (cross-test fault dropping) through views instead of rebuilding
// fault slices.  Two implementations exist: the identity view returned
// by Span and BitView (a survivor bitmap plus rank directory — N bits
// however small the subset).
type View interface {
	// Len returns the number of faults in the view.
	Len() int
	// At returns the fault at view position i.
	At(i int) Fault
	// Index maps view position i to its position in the backing slice.
	Index(i int) int
}

// spanView is the identity View over a whole slice.
type spanView []Fault

// Span returns the identity view over the whole slice.
func Span(faults []Fault) View { return spanView(faults) }

// Len implements View.
func (v spanView) Len() int { return len(v) }

// At implements View.
func (v spanView) At(i int) Fault { return v[i] }

// Index implements View.
func (v spanView) Index(i int) int { return i }
