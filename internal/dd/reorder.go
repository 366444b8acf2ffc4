package dd

import "repro/internal/cnum"

// Dynamic variable reordering: an adjacent level-swap primitive plus
// classic sifting built on top of it.
//
// The engine's diagrams keep DD variables contiguous (a node at level
// l has children at level l-1; see Audit's "level" check), so a
// reorder never relabels variables inside the diagram. Instead the
// *meaning* of a level changes: callers track a permutation
// order[level] = circuit qubit, and a swap of levels l and l+1
// exchanges order[l] and order[l+1] while rewriting the diagram so the
// represented circuit-indexed function is unchanged.
//
// The swap is a memoized functional rebuild through makeVNode/makeMNode
// rather than an in-place mutation of the two levels' unique-table
// entries: with edge-weight normalisation, swapping a node's two levels
// can change the canonical top weight's phase, which would cascade
// weight updates through every ancestor. Rebuilding through the
// hash-consing constructors keeps every produced node canonical by
// construction, so Engine.Audit stays clean after every swap. The
// per-level unique-table index (vTable.levels) confines the *work* to
// the affected levels: only nodes at levels ≥ l can change, nodes at
// the swap level are rebuilt pairwise, and everything below is shared
// untouched.

// vSub returns child bit of ed composed with ed's weight, guarding the
// zero edge (whose node is the terminal and has no children).
func vSub(ed VEdge, bit int) VEdge {
	if ed.N == vTerminal {
		return VZero()
	}
	c := ed.N.E[bit]
	return VEdge{W: ed.W * c.W, N: c.N}
}

// mSub returns quadrant (r,c) of ed composed with ed's weight, guarding
// the zero edge.
func mSub(ed MEdge, r, c int) MEdge {
	if ed.N == mTerminal {
		return MZero()
	}
	q := ed.N.E[2*r+c]
	return MEdge{W: ed.W * q.W, N: q.N}
}

// swapVNode rebuilds one level-(l+1) node with levels l and l+1
// exchanged: the result's top bit selects what used to be the child
// bit, and vice versa.
func (e *Engine) swapVNode(n *VNode, l int32) VEdge {
	e0 := e.makeVNode(l, vSub(n.E[0], 0), vSub(n.E[1], 0))
	e1 := e.makeVNode(l, vSub(n.E[0], 1), vSub(n.E[1], 1))
	return e.makeVNode(l+1, e0, e1)
}

// SwapAdjacentV returns v with DD levels l and l+1 exchanged: for
// every index pair differing only in bits l and l+1, the amplitudes at
// (…b_{l+1} b_l…) and (…b_l b_{l+1}…) are swapped. Callers tracking an
// order[level]=qubit permutation swap order[l] and order[l+1]
// alongside. The rebuild goes through makeVNode only, so the result is
// canonical and Audit-clean; nodes strictly below level l are shared
// with the input. Panics via the abort layer when a deadline, budget
// or injected fault trips — the swap is a natural probe point for
// aborting a long sifting run.
func (e *Engine) SwapAdjacentV(v VEdge, l int) VEdge {
	if l < 0 || l+1 > v.Var() {
		panic("dd: SwapAdjacentV level out of range")
	}
	if e.armed {
		e.abortCheck()
	}
	e.stats.ReorderSwaps++
	memo := make(map[*VNode]VEdge)
	r := e.swapVRec(v.N, int32(l), memo)
	return e.canonV(VEdge{W: v.W * r.W, N: r.N})
}

// swapVRec rebuilds the ancestors of the swap level. Nodes at levels
// below l are untouched and returned as unit edges.
func (e *Engine) swapVRec(n *VNode, l int32, memo map[*VNode]VEdge) VEdge {
	if n == vTerminal || n.V < l {
		return VEdge{W: cnum.One, N: n}
	}
	if r, ok := memo[n]; ok {
		return r
	}
	var r VEdge
	if n.V == l+1 {
		r = e.swapVNode(n, l)
	} else {
		r0 := e.swapVEdge(n.E[0], l, memo)
		r1 := e.swapVEdge(n.E[1], l, memo)
		r = e.makeVNode(n.V, r0, r1)
	}
	memo[n] = r
	return r
}

func (e *Engine) swapVEdge(ed VEdge, l int32, memo map[*VNode]VEdge) VEdge {
	if ed.N == vTerminal {
		return ed // zero edge (or a diagram ending above l — impossible without skips)
	}
	r := e.swapVRec(ed.N, l, memo)
	return VEdge{W: ed.W * r.W, N: r.N}
}

// swapMNode rebuilds one level-(l+1) matrix node with levels l and l+1
// exchanged; rows and columns permute independently.
func (e *Engine) swapMNode(n *MNode, l int32) MEdge {
	var outer [4]MEdge
	for rl := 0; rl < 2; rl++ {
		for cl := 0; cl < 2; cl++ {
			var inner [4]MEdge
			for rh := 0; rh < 2; rh++ {
				for ch := 0; ch < 2; ch++ {
					inner[2*rh+ch] = mSub(n.E[2*rh+ch], rl, cl)
				}
			}
			outer[2*rl+cl] = e.makeMNode(l, inner)
		}
	}
	return e.makeMNode(l+1, outer)
}

// SwapAdjacentM is SwapAdjacentV for matrix diagrams: levels l and l+1
// exchange in both the row and the column index.
func (e *Engine) SwapAdjacentM(m MEdge, l int) MEdge {
	if l < 0 || l+1 > m.Var() {
		panic("dd: SwapAdjacentM level out of range")
	}
	if e.armed {
		e.abortCheck()
	}
	e.stats.ReorderSwaps++
	memo := make(map[*MNode]MEdge)
	r := e.swapMRec(m.N, int32(l), memo)
	return e.canonM(MEdge{W: m.W * r.W, N: r.N})
}

func (e *Engine) swapMRec(n *MNode, l int32, memo map[*MNode]MEdge) MEdge {
	if n == mTerminal || n.V < l {
		return MEdge{W: cnum.One, N: n}
	}
	if r, ok := memo[n]; ok {
		return r
	}
	var r MEdge
	if n.V == l+1 {
		r = e.swapMNode(n, l)
	} else {
		var es [4]MEdge
		for i := range n.E {
			if n.E[i].N == mTerminal {
				es[i] = n.E[i]
				continue
			}
			sub := e.swapMRec(n.E[i].N, l, memo)
			es[i] = MEdge{W: n.E[i].W * sub.W, N: sub.N}
		}
		r = e.makeMNode(n.V, es)
	}
	memo[n] = r
	return r
}

// IdentityOrder returns the identity permutation [0, 1, …, n-1] —
// level l holds qubit l, the order every diagram starts in.
func IdentityOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// IsPermutation reports whether order is a permutation of [0, len).
func IsPermutation(order []int) bool {
	seen := make([]bool, len(order))
	for _, q := range order {
		if q < 0 || q >= len(order) || seen[q] {
			return false
		}
		seen[q] = true
	}
	return true
}

// IndexToDD maps a circuit basis index to the diagram index under
// order (order[level] = circuit qubit; nil means identity): bit l of
// the result is bit order[l] of i.
func IndexToDD(order []int, i uint64) uint64 {
	if order == nil {
		return i
	}
	var j uint64
	for l, q := range order {
		j |= (i >> uint(q) & 1) << uint(l)
	}
	return j
}

// IndexFromDD maps a diagram basis index back to the circuit index
// under order — the inverse of IndexToDD.
func IndexFromDD(order []int, j uint64) uint64 {
	if order == nil {
		return j
	}
	var i uint64
	for l, q := range order {
		i |= (j >> uint(l) & 1) << uint(q)
	}
	return i
}

// VectorInOrder expands v into circuit-ordered amplitudes under order
// (nil means identity): out[i] is the amplitude of circuit basis state
// i regardless of how levels are permuted. Same size limits as
// VEdge.ToVector.
func VectorInOrder(v VEdge, order []int) []complex128 {
	amps := v.ToVector()
	if order == nil {
		return amps
	}
	out := make([]complex128, len(amps))
	for i := range out {
		out[i] = amps[IndexToDD(order, uint64(i))]
	}
	return out
}

// SiftResult summarises one SiftV invocation.
type SiftResult struct {
	Swaps  int // adjacent level swaps performed (incl. restore moves)
	Passes int // variables sifted
	Before int // node count going in
	After  int // node count coming out
}

// SiftV minimises the size of v by classic variable sifting: each
// variable, most-populated level first, is bubbled through every
// position via SwapAdjacentV and parked where the total diagram is
// smallest. order (order[level] = qubit, len = v.Qubits()) is mutated
// in place alongside the swaps; on a panic (cooperative abort mid-
// sift) it is left consistent with the returned-so-far diagram, so
// callers that must survive aborts should pass a scratch copy and
// commit both results only on normal return.
//
// maxSwaps bounds the work (≤ 0 means unlimited); the budget may be
// overshot by up to one restore walk, which never exceeds the number
// of levels. Sifting allocates (per-swap memo maps) and leaves
// intermediate diagrams in the unique tables; callers should garbage-
// collect afterwards.
func (e *Engine) SiftV(v VEdge, order []int, maxSwaps int) (VEdge, SiftResult) {
	n := v.Qubits()
	res := SiftResult{Before: e.SizeV(v)}
	res.After = res.Before
	if n < 2 || v.IsZero() {
		return v, res
	}
	if len(order) != n {
		panic("dd: SiftV order length mismatch")
	}
	if maxSwaps <= 0 {
		maxSwaps = int(^uint(0) >> 1)
	}

	// Occupancy per level of this diagram (not the whole table — the
	// table may hold garbage); most-populated variables move first,
	// where the leverage is.
	occ := make([]int, n)
	e.bumpEpoch()
	e.countLevels(v.N, occ)

	pos := make([]int, n) // pos[qubit] = level
	for l, q := range order {
		pos[q] = l
	}
	vars := make([]int, n)
	for i := range vars {
		vars[i] = order[i]
	}
	// Sort variables by descending occupancy of their current level,
	// ties towards the lower qubit index (deterministic).
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := vars[j-1], vars[j]
			oa, ob := occ[pos[a]], occ[pos[b]]
			if oa > ob || (oa == ob && a < b) {
				break
			}
			vars[j-1], vars[j] = b, a
		}
	}

	cur := v
	size := res.Before
	// step swaps levels l and l+1 of cur and keeps order/pos in sync.
	step := func(l int) {
		cur = e.SwapAdjacentV(cur, l)
		a, b := order[l], order[l+1]
		order[l], order[l+1] = b, a
		pos[a], pos[b] = l+1, l
		res.Swaps++
	}
	for _, q := range vars {
		if res.Swaps >= maxSwaps {
			break
		}
		res.Passes++
		e.stats.SiftPasses++
		p := pos[q]
		bestSize, bestPos := size, p
		// Walk towards the nearer end first to halve the travel.
		down := p <= n-1-p
		for dir := 0; dir < 2; dir++ {
			for (down && pos[q] > 0) || (!down && pos[q] < n-1) {
				if down {
					step(pos[q] - 1)
				} else {
					step(pos[q])
				}
				size = e.SizeV(cur)
				if size < bestSize {
					bestSize, bestPos = size, pos[q]
				}
				if res.Swaps >= maxSwaps {
					break
				}
			}
			down = !down
			if res.Swaps >= maxSwaps {
				break
			}
		}
		// Restore the best position seen (budget overshoot ≤ n-1).
		for pos[q] > bestPos {
			step(pos[q] - 1)
		}
		for pos[q] < bestPos {
			step(pos[q])
		}
		size = e.SizeV(cur)
	}
	res.After = size
	return cur, res
}

// countLevels tallies the distinct nodes of a diagram per level using
// the engine's traversal epoch (caller bumps it).
func (e *Engine) countLevels(n *VNode, occ []int) {
	if n == vTerminal || n.mark == e.epoch {
		return
	}
	n.mark = e.epoch
	occ[n.V]++
	e.countLevels(n.E[0].N, occ)
	e.countLevels(n.E[1].N, occ)
}
