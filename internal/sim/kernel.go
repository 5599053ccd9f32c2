// The compiled replay kernels: every function in this file is on the
// zero-allocation hot path (AllocsPerRun-enforced at runtime,
// hotpathalloc-enforced at vet time).
//
//faultsim:hotpath

package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
)

// Replay simulates up to 64 faults against a classic single-word
// (laneWords == 1) compiled program using the arena's reusable buffers
// and returns the detection mask (bit l set when machine l detected),
// exactly as ReplayBatch does for the uncompiled trace.  Steady-state
// calls allocate nothing: the arena restores only the cells the
// previous batch dirtied and recycles its hook objects through the
// fault pool.  Wide programs use ReplayInto.
func (p *Program) Replay(a *Arena, faults []fault.Fault) (uint64, error) {
	if p.laneWords != 1 {
		//faultsim:alloc-ok cold error path, never taken by a well-formed campaign
		return 0, fmt.Errorf("sim: Replay is the 64-machine entry point; a %d-word program needs ReplayInto", p.laneWords)
	}
	var det [1]uint64
	if err := p.ReplayInto(a, faults, det[:]); err != nil {
		return 0, err
	}
	return det[0], nil
}

// ReplayInto simulates up to laneWords*64 faults against the compiled
// program and fills det (one word per lane group, len == LaneWords())
// with the detection masks: bit l of det[g] is set when machine g*64+l
// detected.  Fault i rides lane i%64 of group i/64, so verdicts are
// positional exactly as in Replay.  Steady-state calls allocate
// nothing, as for Replay.
func (p *Program) ReplayInto(a *Arena, faults []fault.Fault, det []uint64) error {
	W := p.laneWords
	if len(det) != W {
		//faultsim:alloc-ok cold error path, never taken by a well-formed campaign
		return fmt.Errorf("sim: detection buffer has %d words, the program's lane width is %d", len(det), W)
	}
	for g := range det {
		det[g] = 0
	}
	if len(faults) == 0 {
		return nil
	}
	if a.p != p {
		//faultsim:alloc-ok cold error path, never taken by a well-formed campaign
		return fmt.Errorf("sim: arena belongs to a different program")
	}
	a.reset()
	if err := a.inject(faults); err != nil {
		return err
	}
	// full[g] masks the populated lanes of group g: detection updates
	// are ANDed with it, and the kernels early-exit when every group's
	// detected word reaches it (idle groups are vacuously done at 0).
	var fullArr [MaxLaneWords]uint64
	full := fullArr[:W]
	n := len(faults)
	for g := range full {
		switch {
		case n >= (g+1)*BatchSize:
			full[g] = ^uint64(0)
		case n > g*BatchSize:
			full[g] = uint64(1)<<uint(n-g*BatchSize) - 1
		}
	}
	switch {
	case W == 1 && p.width == 1:
		det[0] = p.run1(a, full[0])
	case W == 1:
		det[0] = p.runN(a, full[0])
	case p.width == 1:
		p.run1W(a, det, full)
	default:
		p.runNW(a, det, full)
	}
	return nil
}

// allDetected reports whether every populated lane of every group has
// detected — the wide kernels' early-exit test.
func allDetected(det, full []uint64) bool {
	for g := range det {
		if det[g] != full[g] {
			return false
		}
	}
	return true
}

// Kernel structure, shared by both widths: the operation clock lives in
// a register and is flushed to the arena only around hook invocations
// (the only readers, via fault.LaneMemory.Clock); cells without hooks
// take branch-free sense/store paths guarded by the one-byte flag
// table; the read-history ring is addressed by a wrapping cursor
// instead of a modulo.  The pass returns as soon as every machine of
// the batch has detected.
//
// The word kernels (runN, runNW) also replay quiet stretches cheaply.
// A recurrence write is GF(2)-affine in the reads it references, and
// Compile has checked that it equals the clean write on the clean
// reads, so a machine's write is the clean write plus the GF(2) image
// of its read errors.  Their history ring therefore keeps each read's
// error (sensed XOR clean) with one loud flag per slot; an affine write
// starts from the broadcast clean value and adds only the terms of
// loud reads.  Likewise a fold of a zero error into a clear
// accumulator, and a compare point of a clear accumulator, change
// nothing and are skipped.  While no lane's reads differ from the clean
// run, recurrence and signature work costs one flag test per term.

// run1 is the width-1 kernel for bit-oriented memories: one lane word
// per cell, no per-bit inner loops anywhere on the hot path, and the
// whole instruction — opcode, data bit, cell — in a single uint32, so
// even 1M-cell traces stream 4 bytes per op.
func (p *Program) run1(a *Arena, full uint64) uint64 {
	var detected uint64
	slots, hpos, affPos, foldPos, obsPos, fusPos := p.maxBack, 0, 0, 0, 0, 0
	lanes, hist, flags := a.lanes, a.hist, a.flags
	hasEvery := a.everyN != 0
	track := !p.dense // dense traces restore wholesale, skip marking
	clock := a.clock
	for _, oa := range p.code1 {
		op := oa >> opShift
		if op == opCheckWrite {
			// Fused super-op: one dispatch for a March element's
			// read-check-write of one cell — sense (+hooks/history),
			// compare, then store, with the clock ticking once per fused
			// memory operation.
			cell := int(oa & w1AddrMask)
			clock++
			v := lanes[cell]
			if flags[cell]&flagRead != 0 || hasEvery {
				a.clock = clock
				a.val[0] = v
				for _, h := range a.readHooksOf(cell) {
					h.OnRead(a, cell, a.val)
				}
				for _, h := range a.readHooksOf(a.everyAt) {
					h.OnRead(a, cell, a.val)
				}
				v = a.val[0]
			}
			if slots > 0 {
				hist[hpos] = v
				if hpos++; hpos == slots {
					hpos = 0
				}
			}
			clean := uint64(0) - uint64(oa>>w1DataShift&1)
			detected |= (v ^ clean) & full
			if detected == full {
				break // every machine has detected
			}
			d := uint64(0) - uint64(p.fus1[fusPos])
			fusPos++
			clock++
			if flags[cell]&flagWrite != 0 {
				a.clock = clock
				a.data[0] = d
				hooks := a.writeHooksOf(cell)
				for _, h := range hooks {
					h.PreWrite(a, cell, a.data)
				}
				a.markDirty(cell)
				lanes[cell] = a.data[0]
				for _, h := range hooks {
					h.PostWrite(a, cell, a.data)
				}
			} else {
				if track {
					a.markDirty(cell)
				}
				lanes[cell] = d
			}
			continue
		}
		if op == opObserve {
			// Compare point: no memory access, no clock tick — the
			// machine diverges iff its accumulated signature diff is
			// nonzero.
			ob := &p.observes[obsPos]
			obsPos++
			var d uint64
			for _, w := range a.acc[ob.acc : ob.acc+ob.bits] {
				d |= w
			}
			detected |= d & full
			if detected == full {
				break
			}
			continue
		}
		cell := int(oa & w1AddrMask)
		clock++
		if op <= opFold {
			v := lanes[cell]
			if flags[cell]&flagRead != 0 || hasEvery {
				a.clock = clock
				a.val[0] = v
				for _, h := range a.readHooksOf(cell) {
					h.OnRead(a, cell, a.val)
				}
				for _, h := range a.readHooksOf(a.everyAt) {
					h.OnRead(a, cell, a.val)
				}
				v = a.val[0]
			}
			if slots > 0 {
				hist[hpos] = v
				if hpos++; hpos == slots {
					hpos = 0
				}
			}
			if op != opRead {
				clean := uint64(0) - uint64(oa>>w1DataShift&1) // broadcast the expected bit
				d := v ^ clean
				if op == opCheck {
					detected |= d & full
					if detected == full {
						break // every machine has detected
					}
					continue
				}
				// opFold: acc ← step·acc ⊕ tap·diff, per lane.
				fr := &p.folds[foldPos]
				foldPos++
				if fr.checked {
					detected |= d & full
					if detected == full {
						break
					}
				}
				step := p.rowPool[fr.step : fr.step+fr.bits]
				tap := p.rowPool[fr.tap : fr.tap+fr.bits]
				av := a.acc[fr.acc : fr.acc+fr.bits]
				scr := a.obsScr
				for r := range av {
					var nv uint64
					for m := step[r]; m != 0; m &= m - 1 {
						nv ^= av[bits.TrailingZeros32(m)]
					}
					if tap[r]&1 != 0 {
						nv ^= d
					}
					scr[r] = nv
				}
				copy(av, scr[:len(av)])
			}
			continue
		}
		d := uint64(0) - uint64(oa>>w1DataShift&1)
		if op == opAffine {
			e := &p.aff1[affPos]
			affPos++
			for _, t := range p.terms[e.t0 : e.t0+e.tn] {
				if t.mask&1 != 0 {
					s := hpos - int(t.back)
					if s < 0 {
						s += slots
					}
					d ^= hist[s]
				}
			}
		}
		if flags[cell]&flagWrite != 0 {
			a.clock = clock
			a.data[0] = d
			hooks := a.writeHooksOf(cell)
			for _, h := range hooks {
				h.PreWrite(a, cell, a.data)
			}
			a.markDirty(cell)
			lanes[cell] = a.data[0]
			for _, h := range hooks {
				h.PostWrite(a, cell, a.data)
			}
		} else {
			if track {
				a.markDirty(cell)
			}
			lanes[cell] = d
		}
	}
	a.clock = clock
	return detected
}

// runN is the generic kernel for word-oriented memories (width >= 2),
// replaying quiet batches cheaply as described above.
func (p *Program) runN(a *Arena, full uint64) uint64 {
	w := p.width
	var detected uint64
	slots, hpos, foldPos, obsPos := p.maxBack, 0, 0, 0
	flags, loud, live := a.flags, a.loud, a.accLive
	hasEvery := a.everyN != 0
	track := !p.dense // dense traces restore wholesale, skip marking
	clock := a.clock
	for i := range p.code {
		in := &p.code[i]
		cell := int(in.opAddr & addrMask)
		op := in.opAddr >> opShift
		if op == opObserve {
			// Compare point: no memory access, no clock tick.
			ob := &p.observes[obsPos]
			obsPos++
			if !live[ob.obs] {
				continue // clear accumulator: no machine diverges
			}
			var d uint64
			for _, wv := range a.acc[ob.acc : ob.acc+ob.bits] {
				d |= wv
			}
			detected |= d & full
			if detected == full {
				break
			}
			continue
		}
		base := cell * w
		clock++
		if op <= opFold || op == opCheckWrite {
			val := a.lanes[base : base+w]
			if flags[cell]&flagRead != 0 || hasEvery {
				val = a.val
				copy(val, a.lanes[base:base+w])
				a.clock = clock
				for _, h := range a.readHooksOf(cell) {
					h.OnRead(a, cell, val)
				}
				for _, h := range a.readHooksOf(a.everyAt) {
					h.OnRead(a, cell, val)
				}
			}
			if op == opRead && slots == 0 {
				continue // no recurrence write consumes the read
			}
			// The read's error: kept in the history ring when recurrence
			// writes follow, in scratch otherwise.
			clean := p.lanePool[in.lane : int(in.lane)+w]
			errs := a.diff
			if slots > 0 {
				errs = a.hist[hpos*w : hpos*w+w]
			}
			var diff uint64
			for b := 0; b < w; b++ {
				e := val[b] ^ clean[b]
				errs[b] = e
				diff |= e
			}
			if slots > 0 {
				loud[hpos] = diff != 0
				if hpos++; hpos == slots {
					hpos = 0
				}
			}
			if op == opRead {
				continue
			}
			if op == opFold {
				// acc ← step·acc ⊕ tap·diff, per lane.
				fr := &p.folds[foldPos]
				foldPos++
				if fr.checked {
					detected |= diff & full
					if detected == full {
						break
					}
				}
				if diff == 0 && !live[fr.obs] {
					continue // a zero error into a clear accumulator
				}
				step := p.rowPool[fr.step : fr.step+fr.bits]
				tap := p.rowPool[fr.tap : fr.tap+fr.bits]
				av := a.acc[fr.acc : fr.acc+fr.bits]
				var nz uint64
				for r := range av {
					var nv uint64
					for m := step[r]; m != 0; m &= m - 1 {
						nv ^= av[bits.TrailingZeros32(m)]
					}
					for m := tap[r]; m != 0; m &= m - 1 {
						nv ^= errs[bits.TrailingZeros32(m)]
					}
					a.obsScr[r] = nv
					nz |= nv
				}
				copy(av, a.obsScr[:len(av)])
				live[fr.obs] = nz != 0
				continue
			}
			detected |= diff & full
			if detected == full {
				break // every machine has detected
			}
			if op == opCheck {
				continue
			}
			clock++ // the fused op's write half
		}
		data := a.data
		src := in.lane
		if op == opCheckWrite {
			src = in.t0
		}
		copy(data, p.lanePool[src:int(src)+w])
		if op == opAffine {
			// Start from the clean write; each loud source read adds its
			// errors through the term's GF(2) row.
			for _, t := range p.terms[in.t0 : in.t0+in.tn] {
				s := hpos - int(t.back)
				if s < 0 {
					s += slots
				}
				if !loud[s] {
					continue
				}
				errs := a.hist[s*w:]
				for rm := t.mask; rm != 0; rm &= rm - 1 {
					data[t.dst] ^= errs[bits.TrailingZeros32(rm)]
				}
			}
		}
		if flags[cell]&flagWrite != 0 {
			a.clock = clock
			hooks := a.writeHooksOf(cell)
			for _, h := range hooks {
				h.PreWrite(a, cell, data)
			}
			a.markDirty(cell)
			copy(a.lanes[base:base+w], data)
			for _, h := range hooks {
				h.PostWrite(a, cell, data)
			}
		} else {
			if track {
				a.markDirty(cell)
			}
			copy(a.lanes[base:base+w], data)
		}
	}
	a.clock = clock
	return detected
}

// senseHooked runs the read hooks of every lane group over a sensed
// wide value (val laid out [group][bit], group g's block val[g*w:
// (g+1)*w]) — each group's hooks see only their own 64-lane block
// through the group view, so the single-word fault-model hook
// implementations run unmodified.
func (a *Arena) senseHooked(cell int, val []uint64, clock uint64) {
	p := a.p
	W, w := p.laneWords, p.width
	a.clock = clock
	ht := cell * W
	for g := 0; g < W; g++ {
		vg := val[g*w : (g+1)*w]
		for _, h := range a.readHooksOf(ht + g) {
			h.OnRead(&a.views[g], cell, vg)
		}
		for _, h := range a.readHooksOf(a.everyAt + g) {
			h.OnRead(&a.views[g], cell, vg)
		}
	}
}

// storeHooked stores a wide write value (data laid out [group][bit])
// into a write-hooked cell, running each group's Pre/PostWrite hooks
// around that group's 64-lane store.  Groups are independent — a hook
// only touches its own group's lane words — so the per-group sequence
// is equivalent to the classic single-group pre/store/post order.
func (a *Arena) storeHooked(cell int, data []uint64, clock uint64) {
	p := a.p
	W, w := p.laneWords, p.width
	a.clock = clock
	a.markDirty(cell)
	ht := cell * W
	base := ht * w
	for g := 0; g < W; g++ {
		hooks := a.writeHooksOf(ht + g)
		dg := data[g*w : (g+1)*w]
		for _, h := range hooks {
			h.PreWrite(&a.views[g], cell, dg)
		}
		copy(a.lanes[base+g*w:base+(g+1)*w], dg)
		for _, h := range hooks {
			h.PostWrite(&a.views[g], cell, dg)
		}
	}
}

// run1W is the wide width-1 kernel (laneWords > 1): run1 with a W-word
// lane block per cell — sense, compare, fold and store inner loops all
// run over W words, amortizing dispatch, flag checks and history
// bookkeeping over W*64 machines.
func (p *Program) run1W(a *Arena, det, full []uint64) {
	W := p.laneWords
	slots, hpos, affPos, foldPos, obsPos, fusPos := p.maxBack, 0, 0, 0, 0, 0
	lanes, hist, flags := a.lanes, a.hist, a.flags
	hasEvery := a.everyN != 0
	track := !p.dense // dense traces restore wholesale, skip marking
	clock := a.clock
	for _, oa := range p.code1 {
		op := oa >> opShift
		if op == opObserve {
			// Compare point: no memory access, no clock tick.
			ob := &p.observes[obsPos]
			obsPos++
			accBase := int(ob.acc) * W
			nb := int(ob.bits)
			for g := 0; g < W; g++ {
				var d uint64
				for r := 0; r < nb; r++ {
					d |= a.acc[accBase+r*W+g]
				}
				det[g] |= d & full[g]
			}
			if allDetected(det, full) {
				break
			}
			continue
		}
		cell := int(oa & w1AddrMask)
		base := cell * W
		clock++
		if op <= opFold || op == opCheckWrite {
			var v []uint64
			if flags[cell]&flagRead != 0 || hasEvery {
				v = a.val[:W]
				copy(v, lanes[base:base+W])
				a.senseHooked(cell, v, clock)
			} else {
				// No hooks can perturb the sense: read the lane block in
				// place, no scratch copy.
				v = lanes[base : base+W]
			}
			if slots > 0 {
				copy(hist[hpos*W:hpos*W+W], v)
				if hpos++; hpos == slots {
					hpos = 0
				}
			}
			if op == opRead {
				continue
			}
			clean := uint64(0) - uint64(oa>>w1DataShift&1) // broadcast the expected bit
			if op == opCheck || op == opCheckWrite {
				for g := 0; g < W; g++ {
					det[g] |= (v[g] ^ clean) & full[g]
				}
				if allDetected(det, full) {
					break // every machine has detected
				}
				if op == opCheck {
					continue
				}
				// Fused write half.
				d := uint64(0) - uint64(p.fus1[fusPos])
				fusPos++
				clock++
				if flags[cell]&flagWrite == 0 {
					if track {
						a.markDirty(cell)
					}
					for g := 0; g < W; g++ {
						lanes[base+g] = d
					}
				} else {
					data := a.data[:W]
					for g := range data {
						data[g] = d
					}
					a.storeHooked(cell, data, clock)
				}
				continue
			}
			// opFold: acc ← step·acc ⊕ tap·diff, per lane group.
			fr := &p.folds[foldPos]
			foldPos++
			diff := a.diff[:W]
			for g := 0; g < W; g++ {
				diff[g] = v[g] ^ clean
				if fr.checked {
					det[g] |= diff[g] & full[g]
				}
			}
			if fr.checked && allDetected(det, full) {
				break
			}
			step := p.rowPool[fr.step : fr.step+fr.bits]
			tap := p.rowPool[fr.tap : fr.tap+fr.bits]
			nb := int(fr.bits)
			av := a.acc[int(fr.acc)*W : int(fr.acc)*W+nb*W]
			scr := a.obsScr[:nb*W]
			for r := 0; r < nb; r++ {
				for g := 0; g < W; g++ {
					var nv uint64
					for m := step[r]; m != 0; m &= m - 1 {
						nv ^= av[bits.TrailingZeros32(m)*W+g]
					}
					if tap[r]&1 != 0 {
						nv ^= diff[g]
					}
					scr[r*W+g] = nv
				}
			}
			copy(av, scr)
			continue
		}
		d := uint64(0) - uint64(oa>>w1DataShift&1)
		if op == opWrite {
			if flags[cell]&flagWrite == 0 {
				if track {
					a.markDirty(cell)
				}
				for g := 0; g < W; g++ {
					lanes[base+g] = d
				}
			} else {
				data := a.data[:W]
				for g := range data {
					data[g] = d
				}
				a.storeHooked(cell, data, clock)
			}
			continue
		}
		// opAffine: per-group data diverges through the history terms.
		e := &p.aff1[affPos]
		affPos++
		data := a.data[:W]
		for g := range data {
			data[g] = d
		}
		for _, t := range p.terms[e.t0 : e.t0+e.tn] {
			if t.mask&1 != 0 {
				s := hpos - int(t.back)
				if s < 0 {
					s += slots
				}
				hb := hist[s*W : s*W+W]
				for g := 0; g < W; g++ {
					data[g] ^= hb[g]
				}
			}
		}
		if flags[cell]&flagWrite == 0 {
			if track {
				a.markDirty(cell)
			}
			copy(lanes[base:base+W], data)
		} else {
			a.storeHooked(cell, data, clock)
		}
	}
	a.clock = clock
}

// runNW is the wide generic kernel (width >= 2, laneWords > 1): cell
// blocks are laneWords*width words laid out [group][bit], and every
// per-bit inner loop of runN gains a lane-group dimension.  Loudness
// is per read, not per group: a recurrence term or fold runs over all
// groups or none.
func (p *Program) runNW(a *Arena, det, full []uint64) {
	W, w := p.laneWords, p.width
	ww := W * w // words per cell block
	slots, hpos, foldPos, obsPos := p.maxBack, 0, 0, 0
	flags, loud, live := a.flags, a.loud, a.accLive
	hasEvery := a.everyN != 0
	track := !p.dense // dense traces restore wholesale, skip marking
	clock := a.clock
	for i := range p.code {
		in := &p.code[i]
		cell := int(in.opAddr & addrMask)
		op := in.opAddr >> opShift
		if op == opObserve {
			// Compare point: no memory access, no clock tick.
			ob := &p.observes[obsPos]
			obsPos++
			if !live[ob.obs] {
				continue // clear accumulator: no machine diverges
			}
			accBase := int(ob.acc) * W
			nb := int(ob.bits)
			for g := 0; g < W; g++ {
				var d uint64
				for r := 0; r < nb; r++ {
					d |= a.acc[accBase+r*W+g]
				}
				det[g] |= d & full[g]
			}
			if allDetected(det, full) {
				break
			}
			continue
		}
		base := cell * ww
		clock++
		if op <= opFold || op == opCheckWrite {
			val := a.lanes[base : base+ww]
			if flags[cell]&flagRead != 0 || hasEvery {
				val = a.val[:ww]
				copy(val, a.lanes[base:base+ww])
				a.senseHooked(cell, val, clock)
			}
			if op == opRead && slots == 0 {
				continue // no recurrence write consumes the read
			}
			var fr *foldRec
			check := op != opRead
			if op == opFold {
				fr = &p.folds[foldPos]
				foldPos++
				check = fr.checked
			}
			clean := p.lanePool[in.lane : int(in.lane)+ww]
			if slots == 0 && fr == nil {
				// A checked read nothing else consumes: reduce its error
				// per group without keeping it.
				for g := 0; g < W; g++ {
					gv, gc := val[g*w:(g+1)*w], clean[g*w:(g+1)*w]
					var diff uint64
					for b := range gv {
						diff |= gv[b] ^ gc[b]
					}
					det[g] |= diff & full[g]
				}
			} else {
				// The read's error: kept in the history ring when
				// recurrence writes follow, in scratch otherwise.
				errs := a.diff[:ww]
				if slots > 0 {
					errs = a.hist[hpos*ww : hpos*ww+ww]
				}
				var any uint64
				if check {
					for g := 0; g < W; g++ {
						lo, hi := g*w, (g+1)*w
						gv, gc, ge := val[lo:hi], clean[lo:hi], errs[lo:hi]
						var diff uint64
						for b := range gv {
							e := gv[b] ^ gc[b]
							ge[b] = e
							diff |= e
						}
						det[g] |= diff & full[g]
						any |= diff
					}
				} else {
					val, clean := val[:len(errs)], clean[:len(errs)]
					for j := range errs {
						e := val[j] ^ clean[j]
						errs[j] = e
						any |= e
					}
				}
				if slots > 0 {
					loud[hpos] = any != 0
					if hpos++; hpos == slots {
						hpos = 0
					}
				}
				if fr != nil && (any != 0 || live[fr.obs]) {
					// acc ← step·acc ⊕ tap·diff, per lane group.
					step := p.rowPool[fr.step : fr.step+fr.bits]
					tap := p.rowPool[fr.tap : fr.tap+fr.bits]
					nb := int(fr.bits)
					av := a.acc[int(fr.acc)*W : int(fr.acc)*W+nb*W]
					scr := a.obsScr[:nb*W]
					var nz uint64
					for r := 0; r < nb; r++ {
						for g := 0; g < W; g++ {
							var nv uint64
							for m := step[r]; m != 0; m &= m - 1 {
								nv ^= av[bits.TrailingZeros32(m)*W+g]
							}
							for m := tap[r]; m != 0; m &= m - 1 {
								nv ^= errs[g*w+bits.TrailingZeros32(m)]
							}
							scr[r*W+g] = nv
							nz |= nv
						}
					}
					copy(av, scr)
					live[fr.obs] = nz != 0
				}
			}
			if check && allDetected(det, full) {
				break // every machine has detected
			}
			if op != opCheckWrite {
				continue
			}
			clock++ // the fused op's write half
		}
		data := a.data[:ww]
		src := in.lane
		if op == opCheckWrite {
			src = in.t0
		}
		copy(data, p.lanePool[src:int(src)+ww])
		if op == opAffine {
			// Start from the clean write; each loud source read adds its
			// errors through the term's GF(2) row.
			for _, t := range p.terms[in.t0 : in.t0+in.tn] {
				s := hpos - int(t.back)
				if s < 0 {
					s += slots
				}
				if !loud[s] {
					continue
				}
				errs := a.hist[s*ww:]
				for g := 0; g < W; g++ {
					gb := g * w
					for rm := t.mask; rm != 0; rm &= rm - 1 {
						data[gb+int(t.dst)] ^= errs[gb+bits.TrailingZeros32(rm)]
					}
				}
			}
		}
		if flags[cell]&flagWrite == 0 {
			if track {
				a.markDirty(cell)
			}
			copy(a.lanes[base:base+ww], data)
		} else {
			a.storeHooked(cell, data, clock)
		}
	}
	a.clock = clock
}
