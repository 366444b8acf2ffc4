package dd

import (
	"math"
	"testing"
)

// RefFromPermutation is the earlier FromPermutation, kept as the
// reference the direct builder is compared against: one single-entry DD
// |perm(x)><x| per column, summed pairwise with AddM over a balanced
// split of the column range. perm must be a bijection on [0, 2^n).
func (e *Engine) RefFromPermutation(n int, perm func(uint64) uint64) MEdge {
	var build func(lo, hi uint64) MEdge
	build = func(lo, hi uint64) MEdge {
		if hi-lo == 1 {
			return e.singleEntry(n, perm(lo), lo)
		}
		mid := lo + (hi-lo)/2
		return e.AddM(build(lo, mid), build(mid, hi))
	}
	return build(0, uint64(1)<<uint(n))
}

// singleEntry builds the matrix DD with a single 1 at (row, col).
func (e *Engine) singleEntry(n int, row, col uint64) MEdge {
	m := MOne()
	for q := 0; q < n; q++ {
		idx := 2*int(row>>uint(q)&1) + int(col>>uint(q)&1)
		var es [4]MEdge
		for i := range es {
			es[i] = MZero()
		}
		es[idx] = m
		m = e.makeMNode(int32(q), es)
	}
	return m
}

// AllocatedTables names the compute caches, query memos and gate memo
// the engine holds, in declaration order.
func (e *Engine) AllocatedTables() []string {
	var out []string
	for _, t := range []struct {
		name string
		ok   bool
	}{
		{"add-v", e.addVTab.slots != nil},
		{"add-m", e.addMTab.slots != nil},
		{"mul-mv", e.mulMVTab.slots != nil},
		{"mul-mm", e.mulMMTab.slots != nil},
		{"inner-product", e.ipTab != nil},
		{"trace", e.trTab != nil},
		{"projection", e.projTab != nil},
		{"adjoint", e.ctTab != nil},
		{"gate", e.gateTab != nil},
	} {
		if t.ok {
			out = append(out, t.name)
		}
	}
	return out
}

// SetCacheGen sets the cache generation, so that the next collection
// takes clearCaches' wrap-around branch when g is math.MaxUint32.
func (e *Engine) SetCacheGen(g uint32) { e.cacheGen = g }

// SetCacheBounds pins the compute tables' floor and cap (slot counts,
// powers of two) for the rest of the test; equal values fix the size.
func SetCacheBounds(t testing.TB, floor, cap int) {
	oldFloor, oldCap := cacheFloor, cacheCap
	cacheFloor, cacheCap = floor, cap
	t.Cleanup(func() { cacheFloor, cacheCap = oldFloor, oldCap })
}

// SetNextID sets the id the engine's next node receives.
func (e *Engine) SetNextID(id uint32) { e.nextID = id }

// corruption selects how corruptNode damages a node.
type corruption uint8

const (
	// weightFlip flips one mantissa bit of an edge weight, breaking
	// weight canonicality (and usually the norm) but not structure.
	weightFlip corruption = iota
	// childSwap swaps two successor edges, corrupting structure while
	// every weight stays canonical.
	childSwap
)

func (k corruption) String() string {
	if k == childSwap {
		return "child-swap"
	}
	return "weight-flip"
}

// weightFlipBit is XORed into the real-part mantissa of the victim
// weight: bit 30 sits mid-mantissa, so the flip is large enough to
// defeat cnum tolerance yet small enough that the weight still looks
// like a plausible amplitude.
const weightFlipBit = 1 << 30

func flipWeight(w complex128) complex128 {
	return complex(math.Float64frombits(math.Float64bits(real(w))^weightFlipBit), imag(w))
}

// corruptNode damages the live node with the given id (ids count node
// internings from 1) in place and reports whether such a node exists.
// The stored hash and unique-table slot are left as they were: that
// staleness is the damage being modelled.
func (e *Engine) corruptNode(id uint32, kind corruption) bool {
	for _, n := range e.vUnique.slots {
		if n != nil && n != vTombstone && n.id == id {
			corruptV(n, kind)
			return true
		}
	}
	for _, n := range e.mUnique.slots {
		if n != nil && n != mTombstone && n.id == id {
			corruptM(n, kind)
			return true
		}
	}
	return false
}

func corruptV(n *VNode, kind corruption) {
	if kind == childSwap {
		if n.E[0] != n.E[1] {
			n.E[0], n.E[1] = n.E[1], n.E[0]
			return
		}
		// Equal successors make a swap a no-op. Redirect a child to the
		// terminal (level-skip damage) when there is a level below;
		// at V == 0 fall through to a weight flip.
		if n.V > 0 {
			n.E[0].N = vTerminal
			return
		}
	}
	for i := range n.E {
		if n.E[i].W != 0 {
			n.E[i].W = flipWeight(n.E[i].W)
			return
		}
	}
}

// corruptM is corruptV for matrix nodes; a child swap exchanges the
// diagonal quadrants E[0]/E[3], else the off-diagonal ones.
func corruptM(n *MNode, kind corruption) {
	if kind == childSwap {
		if n.E[0] != n.E[3] {
			n.E[0], n.E[3] = n.E[3], n.E[0]
			return
		}
		if n.E[1] != n.E[2] {
			n.E[1], n.E[2] = n.E[2], n.E[1]
			return
		}
		if n.V > 0 {
			n.E[0].N = mTerminal
			return
		}
	}
	for i := range n.E {
		if n.E[i].W != 0 {
			n.E[i].W = flipWeight(n.E[i].W)
			return
		}
	}
}
