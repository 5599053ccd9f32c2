package fault

import "math/bits"

// BitSet is a dense bitmap over universe fault positions — the
// campaign session layer's survivor bookkeeping.  A multi-test dropped
// session over N faults keeps N bits here instead of materialized
// index slices, so cross-test dropping costs N/8 bytes however many
// stages narrow the universe.  Set grows the bitmap on demand (a
// streaming source's Count may be an estimate); Get outside the
// current capacity reads false.  A BitSet is not synchronized.
type BitSet struct {
	words []uint64
}

// NewBitSet returns an empty bitmap with capacity for n bits.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64)}
}

// Get reports bit i (false beyond the current capacity).
func (b *BitSet) Get(i int) bool {
	w := i >> 6
	if w >= len(b.words) {
		return false
	}
	return b.words[w]>>(uint(i)&63)&1 == 1
}

// Set sets bit i, growing the bitmap as needed.
func (b *BitSet) Set(i int) {
	w := i >> 6
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (b *BitSet) Clear(i int) {
	if w := i >> 6; w < len(b.words) {
		b.words[w] &^= 1 << (uint(i) & 63)
	}
}

// Count returns the number of set bits.
func (b *BitSet) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or folds other's set bits into b, growing b as needed — the
// partition-merge primitive: per-worker and per-process detection
// bitmaps cover disjoint index ranges, so OR is their exact union.
func (b *BitSet) Or(other *BitSet) {
	if other == nil {
		return
	}
	for len(b.words) < len(other.words) {
		b.words = append(b.words, 0)
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Clone returns an independent copy.
func (b *BitSet) Clone() *BitSet {
	return &BitSet{words: append([]uint64(nil), b.words...)}
}

// Words exposes the backing word array (bit i lives at word i/64, bit
// i%64) — the serialization surface of the checkpoint layer.  The
// slice aliases the bitmap; callers must not mutate it.
func (b *BitSet) Words() []uint64 { return b.words }

// BitSetFromWords rebuilds a bitmap around a deserialized word array;
// the slice is adopted, not copied.
func BitSetFromWords(words []uint64) *BitSet { return &BitSet{words: words} }

// BitView is a View whose subset is a survivor bitmap over the backing
// slice: position i of the view is the i-th set bit.  It snapshots the
// bitmap at construction (later BitSet mutations do not move the
// view), and carries a per-word rank directory so At/Index resolve a
// view position with one binary search plus an in-word select —
// O(N/64) ints of directory, no per-survivor index slice.
type BitView struct {
	faults []Fault
	words  []uint64
	rank   []int32 // rank[w] = set bits in words[:w]
	n      int
}

// NewBitView builds a view of faults restricted to the set bits of
// bits (bits beyond len(faults) are ignored).
func NewBitView(faults []Fault, bits_ *BitSet) *BitView {
	nw := (len(faults) + 63) / 64
	words := make([]uint64, nw)
	copy(words, bits_.words)
	if nw > 0 && len(faults)%64 != 0 {
		words[nw-1] &= 1<<(uint(len(faults))%64) - 1
	}
	v := &BitView{faults: faults, words: words, rank: make([]int32, nw+1)}
	for w, word := range words {
		v.rank[w+1] = v.rank[w] + int32(bits.OnesCount64(word))
	}
	v.n = int(v.rank[nw])
	return v
}

// Len implements View.
func (v *BitView) Len() int { return v.n }

// sel returns the backing position of view position i (the i-th set
// bit): binary search on the rank directory, select within the word.
func (v *BitView) sel(i int) int {
	lo, hi := 0, len(v.words)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(v.rank[mid]) <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := i - int(v.rank[lo])
	word := v.words[lo]
	for ; rem > 0; rem-- {
		word &= word - 1
	}
	return lo*64 + bits.TrailingZeros64(word)
}

// At implements View.
func (v *BitView) At(i int) Fault { return v.faults[v.sel(i)] }

// Index implements View.
func (v *BitView) Index(i int) int { return v.sel(i) }
