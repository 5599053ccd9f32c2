// Structural fault collapsing.  Collapse must be deterministic: the
// materialized executor collapses on every run and the equivalence
// property tests byte-compare collapsed campaigns against full ones,
// so class representatives may not depend on iteration order.
//
//faultsim:deterministic

package fault

import (
	"math"
	"math/bits"

	"repro/internal/telemetry"
)

// Structural fault collapsing: before a campaign simulates a universe,
// faults that provably produce the same detection outcome are grouped
// into equivalence classes, one representative per class is simulated,
// and the representative's result is expanded back over the class.
// Every rule here is an exact equivalence — never a dominance
// heuristic — so collapsed campaigns are byte-identical to full ones
// (the engine-equivalence property tests assert this).
//
// Two rule families exist:
//
//   - trace-independent structural rules: value-identical duplicates;
//     bridging faults, whose wired-AND/OR behaviour is symmetric in the
//     two bridged bits (BF{a~b} ≡ BF{b~a}); and degenerate "benign"
//     instances that behave exactly like a fault-free memory (NPSF
//     with an incomplete neighbourhood, self-aliasing decoder faults,
//     self-bridged bits).
//
//   - trace-conditioned rules, enabled by a TraceSummary from the trace
//     compiler: when the trace has no affine recurrence writes, read
//     values feed nothing but the checked-read comparators and the
//     signature observers, so a stuck-at fault is detected exactly when
//     some checked read of its cell expects the opposite polarity or
//     the bit's error pattern survives an observer.  If checked reads
//     expect both polarities of a bit, SA0 and SA1 on that bit are both
//     detected and collapse to a single representative; if neither
//     polarity is checked AND the bit never feeds a signature observer,
//     both are undetected and also collapse.  A folded-but-unchecked
//     bit stays uncollapsed: SA0 and SA1 inject different error
//     patterns into the register and may alias differently.
//
// Classes are found with a value-keyed index table, not a map: each
// built-in model (SAF, TF, SOF, DRF, AF, CFin, CFid, CFst, BF, SNPSF,
// ANPSF) maps to a fixed comparable collapseKey — a rule tag plus the
// model's cells, bits and parameters, with the rules above applied
// (BF endpoints ordered, benign instances sharing one key, paired SAFs
// dropping their polarity).  A Collapser keeps one open-addressing
// table of representative indices, sized to the largest set it has
// seen and emptied between calls by bumping a generation counter, so
// steady-state collapsing allocates nothing.  The table stores no
// keys: a probe whose hash matches is confirmed by re-deriving the
// occupant representative's key and comparing it exactly, so a hash
// collision can never merge two classes.  Fault types outside the
// built-in models are never merged — each instance is its own class.
// That is exact (declining to merge is always sound) and needs nothing
// of the type, not even comparability.

// TraceSummary captures the replay-relevant properties of a recorded
// test trace that trace-conditioned collapsing rules rely on.  It is
// produced by the trace compiler (sim.(*Program).Summary); passing nil
// to Collapse restricts it to the trace-independent rules.
type TraceSummary struct {
	// Width is the memory's cell width in bits.
	Width int
	// Affine reports whether any write derives from earlier reads.
	// When true, read errors propagate between cells and per-cell
	// detection reasoning is unsound, so the SAF rule is disabled.
	Affine bool
	// Expect[cell*Width+bit] is the set of polarities checked reads
	// expect of that stored bit: bit 0 set when some checked read
	// expects 0, bit 1 when some checked read expects 1; ExpectFolded
	// set when a read of the bit feeds a signature observer.
	Expect []uint8
}

// ExpectFolded flags a TraceSummary.Expect bit that feeds a signature
// observer via a fold annotation.
const ExpectFolded uint8 = 1 << 2

// Collapsed is the result of collapsing a fault universe.
type Collapsed struct {
	// Reps holds one representative per equivalence class, in first-
	// occurrence order of the original universe.
	Reps []Fault
	// Map[i] is the index into Reps whose simulation result decides
	// fault i of the original universe.
	Map []int
}

// ExpandInto maps per-representative detection results back onto the
// full universe, into a caller-provided buffer of len(Map): rep[r] is
// the verdict of Reps[r], dst[i] receives fault i's.  The drivers reuse
// one buffer across every chunk or stage of a campaign.
//
//faultsim:hotpath
func (c *Collapsed) ExpandInto(dst, rep []bool) {
	for i, r := range c.Map {
		dst[i] = rep[r]
	}
}

// Saved returns how many simulations collapsing avoids.
func (c *Collapsed) Saved() int { return len(c.Map) - len(c.Reps) }

// Collapser partitions fault sets into exact equivalence classes.  It
// owns its index table and result buffers and reuses them across
// calls: a materialized session keeps one for all its stages.  The
// Collapsed a call returns aliases those buffers and is valid until
// the next call.  The zero value is ready to use; a Collapser is not
// safe for concurrent use.
type Collapser struct {
	table []collapseSlot // len is a power of two, at least twice the set
	shift uint           // 64 - log2(len(table)): hash high bits → slot
	gen   uint32         // slots of another generation are empty
	reps  []Fault
	m     []int
}

// collapseSlot is one index-table entry: the representative's index
// into Reps, the low 32 bits of its key hash (a cheap filter before
// the exact key comparison), and the generation that wrote it.
type collapseSlot struct {
	gen, hash uint32
	rep       int32
}

// CollapseView partitions a view's faults into exact equivalence
// classes.  sum, when non-nil, enables the trace-conditioned rules; the
// caller must have produced it from the same trace the representatives
// will be simulated against.  The classes are computed among the
// view's faults only (Map is indexed by view position), so collapsing
// composes with cross-test fault dropping — a representative whose
// class died out of the survivor set is not simulated, and ExpandInto
// still scatters results back per view position.
//
//faultsim:hotpath
func (c *Collapser) CollapseView(v View, sum *TraceSummary) Collapsed {
	n := v.Len()
	c.reset(n)
	for i := 0; i < n; i++ {
		c.m[i] = c.class(v.At(i), sum)
	}
	return c.done()
}

// reset readies the buffers for a set of n faults: the table grows
// only when n outgrows it, and is otherwise emptied by starting a new
// generation (cleared for real only when the counter wraps).
//
//faultsim:hotpath
func (c *Collapser) reset(n int) {
	if n > math.MaxInt32 {
		panic("fault: collapse set exceeds 2^31 faults") //faultsim:alloc-ok failure path, rep indices are int32
	}
	if want := 2 * n; len(c.table) < want {
		size := 16
		for size < want {
			size <<= 1
		}
		c.table = make([]collapseSlot, size) //faultsim:alloc-ok grows to the largest set seen, then reused
		c.shift = uint(64 - bits.TrailingZeros(uint(size)))
		c.gen = 0
	}
	c.gen++
	if c.gen == 0 {
		clear(c.table)
		c.gen = 1
	}
	if cap(c.m) < n {
		c.m = make([]int, n) //faultsim:alloc-ok grows to the largest set seen, then reused
	}
	c.m = c.m[:n]
	clear(c.reps) // drop the previous set's faults for the collector
	c.reps = c.reps[:0]
}

// done publishes the collapsed set and its telemetry.
//
//faultsim:hotpath
func (c *Collapser) done() Collapsed {
	telemetry.Active().CollapseDelta(len(c.m), len(c.reps))
	return Collapsed{Reps: c.reps, Map: c.m}
}

// class returns f's representative index, appending f as a new
// representative when its class has none yet.
//
//faultsim:hotpath
func (c *Collapser) class(f Fault, sum *TraceSummary) int {
	k, ok := collapseKeyOf(f, sum)
	if !ok {
		return c.push(f) // unknown model: a class of its own
	}
	h := k.hash()
	mask := len(c.table) - 1
	for j := int(h >> c.shift); ; j = (j + 1) & mask {
		s := &c.table[j]
		if s.gen != c.gen {
			r := c.push(f)
			*s = collapseSlot{gen: c.gen, hash: uint32(h), rep: int32(r)}
			return r
		}
		if s.hash == uint32(h) {
			// Only built-in models enter the table, so the occupant
			// always has a key; equal keys are the same class.
			if occ, _ := collapseKeyOf(c.reps[s.rep], sum); occ == k {
				return int(s.rep)
			}
		}
	}
}

// push appends f as a new representative and returns its index.
//
//faultsim:hotpath
func (c *Collapser) push(f Fault) int {
	c.reps = append(c.reps, f) //faultsim:alloc-ok grows to the largest class count seen, then reused
	return len(c.reps) - 1
}

// Collapse partitions the universe into exact equivalence classes with
// a fresh Collapser (see Collapser.CollapseView).
func Collapse(faults []Fault, sum *TraceSummary) Collapsed {
	return CollapseView(Span(faults), sum)
}

// CollapseView collapses a view with a fresh Collapser (see
// Collapser.CollapseView).
func CollapseView(v View, sum *TraceSummary) Collapsed {
	var c Collapser
	return c.CollapseView(v, sum)
}

// Rule tags of collapseKey: one per built-in model, plus the shared
// benign class and the trace-conditioned SA0/SA1 pair.  Benign faults
// behave exactly like a fault-free memory, so their representative is
// always reported undetected (a clean machine never diverges from the
// recorded clean trace).
const (
	keyBenign uint64 = iota + 1
	keySAFPair
	keySAF
	keyTF
	keySOF
	keyDRF
	keyAF
	keyCFin
	keyCFid
	keyCFst
	keyBF
	keySNPSF
	keyANPSF
)

// keyFlag is set in collapseKey.tag when the model's boolean
// parameter (TF/CFin/CFid/ANPSF Up, BF And) is true.
const keyFlag uint64 = 1 << 8

// collapseKey is the equivalence-class key of a built-in fault: faults
// with equal keys are detected identically by any replay of the
// summarised trace.  tag holds the rule tag and keyFlag; w holds the
// model's cells, bits and parameters, in field order, zero-padded.
// Without a merging rule the key carries every field of the value, so
// it collapses exact duplicates and nothing else.
type collapseKey struct {
	tag uint64
	w   [8]uint64
}

// collapseKeyOf computes f's key; ok is false for fault types outside
// the built-in models, which are never merged.
//
//faultsim:hotpath
func collapseKeyOf(f Fault, sum *TraceSummary) (k collapseKey, ok bool) {
	switch t := f.(type) {
	case SAF:
		if sum.pairsSAF(t.Cell, t.Bit) {
			return collapseKey{tag: keySAFPair, w: [8]uint64{kw(t.Cell), kw(t.Bit)}}, true
		}
		return collapseKey{tag: keySAF, w: [8]uint64{kw(t.Cell), kw(t.Bit), uint64(t.Value)}}, true
	case TF:
		return collapseKey{tag: keyTF | kflag(t.Up), w: [8]uint64{kw(t.Cell), kw(t.Bit)}}, true
	case SOF:
		return collapseKey{tag: keySOF, w: [8]uint64{kw(t.Cell)}}, true
	case DRF:
		return collapseKey{tag: keyDRF, w: [8]uint64{kw(t.Cell), kw(t.Bit), uint64(t.Decay), t.Delay}}, true
	case AF:
		if t.Kind != AFNone && t.Addr == t.Target {
			return collapseKey{tag: keyBenign}, true // self-alias / self-multi is the identity
		}
		return collapseKey{tag: keyAF, w: [8]uint64{kw(int(t.Kind)), kw(t.Addr), kw(t.Target)}}, true
	case CFin:
		return collapseKey{tag: keyCFin | kflag(t.Up), w: [8]uint64{
			kw(t.AggCell), kw(t.AggBit), kw(t.VicCell), kw(t.VicBit)}}, true
	case CFid:
		return collapseKey{tag: keyCFid | kflag(t.Up), w: [8]uint64{
			kw(t.AggCell), kw(t.AggBit), kw(t.VicCell), kw(t.VicBit), uint64(t.Value)}}, true
	case CFst:
		return collapseKey{tag: keyCFst, w: [8]uint64{
			kw(t.AggCell), kw(t.AggBit), kw(t.VicCell), kw(t.VicBit), uint64(t.AggValue), uint64(t.Value)}}, true
	case BF:
		if t.CellA == t.CellB && t.BitA == t.BitB {
			return collapseKey{tag: keyBenign}, true // x wired with itself is x
		}
		if t.CellA > t.CellB || (t.CellA == t.CellB && t.BitA > t.BitB) {
			t.CellA, t.CellB = t.CellB, t.CellA
			t.BitA, t.BitB = t.BitB, t.BitA
		}
		return collapseKey{tag: keyBF | kflag(t.And), w: [8]uint64{
			kw(t.CellA), kw(t.BitA), kw(t.CellB), kw(t.BitB)}}, true
	case SNPSF:
		if !t.Nb.Complete() {
			return collapseKey{tag: keyBenign}, true // incomplete neighbourhood never matches
		}
		nb := t.Nb
		return collapseKey{tag: keySNPSF, w: [8]uint64{
			kw(nb.Base), kw(nb.N), kw(nb.E), kw(nb.S), kw(nb.W), uint64(t.Pattern), uint64(t.Value)}}, true
	case ANPSF:
		if !t.Nb.Complete() {
			return collapseKey{tag: keyBenign}, true // a missing neighbour blocks every firing
		}
		nb := t.Nb
		return collapseKey{tag: keyANPSF | kflag(t.Up), w: [8]uint64{
			kw(nb.Base), kw(nb.N), kw(nb.E), kw(nb.S), kw(nb.W), kw(t.Trigger), uint64(t.Pattern), uint64(t.Value)}}, true
	}
	return collapseKey{}, false
}

// pairsSAF reports whether the trace makes SA0 and SA1 on (cell, bit)
// provably equivalent.  With both polarities checked, SA0 and SA1 are
// both detected (the observers cannot un-detect a diverging checked
// read); with neither polarity checked and the bit feeding no
// observer, both are undetected.  A folded bit without full checked
// coverage must stay split: the two polarities fold different error
// patterns and may alias differently.  An affine trace, a nil summary
// or a bit outside [0, Width) never pairs.
func (sum *TraceSummary) pairsSAF(cell, bit int) bool {
	if sum == nil || sum.Affine || bit < 0 || bit >= sum.Width {
		return false
	}
	idx := cell*sum.Width + bit
	if idx < 0 || idx >= len(sum.Expect) {
		return false
	}
	e := sum.Expect[idx]
	p := e & 3
	return p == 3 || (p == 0 && e&ExpectFolded == 0)
}

// hash is a multilinear hash of the key's words — one independent
// multiply per word by a distinct odd constant, summed, so the products
// pipeline instead of forming a dependent chain — finished by folding
// the high half into the low.  Slot selection takes the high bits, the
// slot's filter the low 32.
func (k *collapseKey) hash() uint64 {
	h := k.tag*0x9e3779b97f4a7c15 +
		k.w[0]*0xc2b2ae3d27d4eb4f + k.w[1]*0x165667b19e3779f9 +
		k.w[2]*0xd6e8feb86659fd93 + k.w[3]*0xff51afd7ed558ccd +
		k.w[4]*0xc4ceb9fe1a85ec53 + k.w[5]*0x94d049bb133111eb +
		k.w[6]*0xbf58476d1ce4e5b9 + k.w[7]*0x2545f4914f6cdd1d
	return h ^ h>>32
}

// kw widens an int field into a key word (sign-extending, so distinct
// ints stay distinct words).
func kw(x int) uint64 { return uint64(x) }

// kflag is keyFlag when b is set.
func kflag(b bool) uint64 {
	if b {
		return keyFlag
	}
	return 0
}
