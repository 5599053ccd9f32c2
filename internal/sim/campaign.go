package sim

import "repro/internal/fault"

// BatchSize is the number of machines simulated per lane word — one
// per bit.  A replay pass simulates BatchSize machines per lane word
// of its program (Program.BatchFaults), i.e. 64 for the classic
// single-word configuration and 256/512 for wide-lane programs.
const BatchSize = 64

// Batchable reports whether every fault of the slice supports batch
// injection, i.e. whether the whole universe can take the bit-parallel
// path.
func Batchable(faults []fault.Fault) bool {
	for _, f := range faults {
		if _, ok := f.(fault.BatchInjector); !ok {
			return false
		}
	}
	return true
}
