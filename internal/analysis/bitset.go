// Package analysis provides the program analyses the Idiom Description
// Language's atomic constraints are evaluated against: an instruction-
// granularity control flow graph, dominance and post-dominance, def-use
// data flow, memory dependence edges, and path ("passes through" / "killed
// by") queries.
//
// Control flow is modelled at the granularity of instructions, exactly as
// the paper specifies: "Control flow in our model is evaluated on the
// granularity of instructions. ... For phi nodes, the incoming basic blocks
// are identified with their terminating branch instruction."
package analysis

// bitset is a fixed-capacity bit vector used by the dataflow solvers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) setAll() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

func (b bitset) copyFrom(o bitset) {
	copy(b, o)
}

// intersectWith computes b &= o and reports whether b changed.
func (b bitset) intersectWith(o bitset) bool {
	changed := false
	for i := range b {
		nv := b[i] & o[i]
		if nv != b[i] {
			changed = true
			b[i] = nv
		}
	}
	return changed
}
