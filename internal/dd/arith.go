package dd

import (
	"fmt"
	"math"

	"repro/internal/cnum"
)

// Add returns the element-wise sum of two vector diagrams (Fig. 4 of the
// paper). Both operands must span the same variables.
func (e *Engine) Add(a, b VEdge) VEdge {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	return e.addV(a, b)
}

// addV computes a·x + b·y as a·(x + q·y) with q the canonical ratio b/a,
// so the cache keys on (x, y, q) rather than on both operand weights:
// sums that differ only by a common factor share one entry.
func (e *Engine) addV(a, b VEdge) VEdge {
	e.abortCheck()
	e.stats.AddRecursions++
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	if a.N == b.N {
		w := e.weights.Lookup(a.W + b.W)
		if w == cnum.Zero {
			return VZero()
		}
		return VEdge{W: w, N: a.N}
	}
	if a.N.V != b.N.V {
		panic(fmt.Sprintf("dd: Add on mismatched levels %d vs %d", a.N.V, b.N.V))
	}
	if addSwap(a.W, b.W, a.N.id, b.N.id) {
		a, b = b, a
	}
	q := e.weights.Lookup(b.W / a.W)
	if q == cnum.Zero {
		return a
	}
	x, y := a.N, b.N
	idx := mixW(mix(x.id, y.id), q) & cacheMask
	e.stats.AddV.Lookups++
	if s := &e.addVTab[idx]; s.gen == e.cacheGen && s.x == x.id && s.y == y.id && s.q == q {
		e.stats.AddV.Hits++
		return e.scaleV(s.r, a.W)
	}
	var children [2]VEdge
	for i := 0; i < 2; i++ {
		children[i] = e.addV(x.E[i], VEdge{W: q * y.E[i].W, N: y.E[i].N})
	}
	r := e.makeVNode(x.V, children[0], children[1])
	e.addVTab[idx] = addVSlot{x: x.id, y: y.id, q: q, r: r, gen: e.cacheGen}
	return e.scaleV(r, a.W)
}

// AddM returns the element-wise sum of two matrix diagrams.
func (e *Engine) AddM(a, b MEdge) MEdge {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	return e.addM(a, b)
}

// addM is addV for matrices: a·(x + q·y), cached on (x, y, q).
func (e *Engine) addM(a, b MEdge) MEdge {
	e.abortCheck()
	e.stats.AddRecursions++
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	if a.N == b.N {
		w := e.weights.Lookup(a.W + b.W)
		if w == cnum.Zero {
			return MZero()
		}
		return MEdge{W: w, N: a.N}
	}
	if a.N.V != b.N.V {
		panic(fmt.Sprintf("dd: AddM on mismatched levels %d vs %d", a.N.V, b.N.V))
	}
	if addSwap(a.W, b.W, a.N.id, b.N.id) {
		a, b = b, a
	}
	q := e.weights.Lookup(b.W / a.W)
	if q == cnum.Zero {
		return a
	}
	x, y := a.N, b.N
	idx := mixW(mix(x.id, y.id), q) & cacheMask
	e.stats.AddM.Lookups++
	if s := &e.addMTab[idx]; s.gen == e.cacheGen && s.x == x.id && s.y == y.id && s.q == q {
		e.stats.AddM.Hits++
		return e.scaleM(s.r, a.W)
	}
	var children [4]MEdge
	for i := 0; i < 4; i++ {
		children[i] = e.addM(x.E[i], MEdge{W: q * y.E[i].W, N: y.E[i].N})
	}
	r := e.makeMNode(x.V, children)
	e.addMTab[idx] = addMSlot{x: x.id, y: y.id, q: q, r: r, gen: e.cacheGen}
	return e.scaleM(r, a.W)
}

// addSwap reports whether the operands of a sum must swap so that the
// first one carries the factored-out scale: the larger |w|², ties broken
// on the weight bits. Only bit-equal weights, where x + 1·y is symmetric,
// fall through to the node ids, which then just order the cache key. The
// choice must never rest on ids alone: a node rebuilt after GC gets a
// new id, and a·(x + (b/a)·y) is not symmetric in floating point the
// way a + b is.
func addSwap(aw, bw complex128, aid, bid uint32) bool {
	if ma, mb := cnum.Abs2(aw), cnum.Abs2(bw); ma != mb {
		return mb > ma
	}
	if ar, br := math.Float64bits(real(aw)), math.Float64bits(real(bw)); ar != br {
		return br > ar
	}
	if ai, bi := math.Float64bits(imag(aw)), math.Float64bits(imag(bw)); ai != bi {
		return bi > ai
	}
	return aid > bid
}

// MulVec returns the matrix-vector product m×v (Fig. 3 of the paper, a
// single "simulation step"). The operands must span the same variables.
func (e *Engine) MulVec(m MEdge, v VEdge) VEdge {
	e.stats.MatVecMuls++
	return e.mulVec(m, v)
}

func (e *Engine) mulVec(m MEdge, v VEdge) VEdge {
	e.abortCheck()
	e.stats.MulRecursions++
	if m.IsZero() || v.IsZero() {
		return VZero()
	}
	// Top weights factor out multiplicatively: cache on nodes only.
	w := e.weights.Lookup(m.W * v.W)
	if m.IsTerminal() { // then v is terminal too (same span)
		return VEdge{W: w, N: vTerminal}
	}
	if m.N.V != v.N.V {
		panic(fmt.Sprintf("dd: MulVec on mismatched levels %d vs %d", m.N.V, v.N.V))
	}
	// Identity short-circuit: an edge into an identity node represents
	// m.W·I, so the product is v scaled by m.W — the exact canonical
	// edge the recursion below would rebuild (the identity rows
	// reproduce v.N's halves unchanged, and re-interning a canonical
	// node is the node itself), just without walking m.N.V+1 levels.
	if m.N.isIdentity && !e.noIdentitySkip {
		e.stats.IdentitySkipsMV++
		e.stats.IdentitySkipLevels += uint64(m.N.V) + 1
		return e.scaleV(v, m.W)
	}
	idx := mix(m.N.id, v.N.id) & cacheMask
	e.stats.MulMV.Lookups++
	if s := &e.mulMVTab[idx]; s.gen == e.cacheGen && s.m == m.N.id && s.v == v.N.id {
		e.stats.MulMV.Hits++
		return e.scaleV(s.r, w)
	}
	var children [2]VEdge
	for row := 0; row < 2; row++ {
		var sum VEdge = VZero()
		for col := 0; col < 2; col++ {
			// Zero quadrants contribute nothing; gate padding guarantees
			// plenty of them (every non-target level of a gate DD has
			// zero off-diagonals). Unconditional: addV(sum, 0) == sum, so
			// skipping is bit-identical to recursing.
			if m.N.E[2*row+col].IsZero() || v.N.E[col].IsZero() {
				continue
			}
			p := e.mulVec(m.N.E[2*row+col], v.N.E[col])
			sum = e.addV(sum, p)
		}
		children[row] = sum
	}
	r := e.makeVNode(m.N.V, children[0], children[1])
	e.mulMVTab[idx] = mulMVSlot{m: m.N.id, v: v.N.id, r: r, gen: e.cacheGen}
	return e.scaleV(r, w)
}

// MulMat returns the matrix-matrix product a×b (a applied after b, i.e.
// (a×b)·x == a·(b·x)). This is the operation the paper's combination
// strategies spend to save matrix-vector multiplications.
func (e *Engine) MulMat(a, b MEdge) MEdge {
	e.stats.MatMatMuls++
	return e.mulMat(a, b)
}

func (e *Engine) mulMat(a, b MEdge) MEdge {
	e.abortCheck()
	e.stats.MulRecursions++
	if a.IsZero() || b.IsZero() {
		return MZero()
	}
	w := e.weights.Lookup(a.W * b.W)
	if a.IsTerminal() {
		return MEdge{W: w, N: mTerminal}
	}
	if a.N.V != b.N.V {
		panic(fmt.Sprintf("dd: MulMat on mismatched levels %d vs %d", a.N.V, b.N.V))
	}
	// Identity short-circuits: (a.W·I)×b = b scaled by a.W and
	// a×(b.W·I) = a scaled by b.W, both the exact canonical edges the
	// recursion would rebuild. This is the combination strategies' case:
	// accumulated operation matrices are mostly identity structure.
	if !e.noIdentitySkip {
		if a.N.isIdentity {
			e.stats.IdentitySkipsMM++
			e.stats.IdentitySkipLevels += uint64(a.N.V) + 1
			return e.scaleM(b, a.W)
		}
		if b.N.isIdentity {
			e.stats.IdentitySkipsMM++
			e.stats.IdentitySkipLevels += uint64(b.N.V) + 1
			return e.scaleM(a, b.W)
		}
	}
	idx := mix(a.N.id, b.N.id) & cacheMask
	e.stats.MulMM.Lookups++
	if s := &e.mulMMTab[idx]; s.gen == e.cacheGen && s.a == a.N.id && s.b == b.N.id {
		e.stats.MulMM.Hits++
		return e.scaleM(s.r, w)
	}
	var children [4]MEdge
	for row := 0; row < 2; row++ {
		for col := 0; col < 2; col++ {
			var sum MEdge = MZero()
			for k := 0; k < 2; k++ {
				// Skip zero partial products (see mulVec): bit-identical,
				// since addM(sum, 0) == sum.
				if a.N.E[2*row+k].IsZero() || b.N.E[2*k+col].IsZero() {
					continue
				}
				p := e.mulMat(a.N.E[2*row+k], b.N.E[2*k+col])
				sum = e.addM(sum, p)
			}
			children[2*row+col] = sum
		}
	}
	r := e.makeMNode(a.N.V, children)
	e.mulMMTab[idx] = mulMMSlot{a: a.N.id, b: b.N.id, r: r, gen: e.cacheGen}
	return e.scaleM(r, w)
}

// scaleV multiplies a vector edge by a scalar.
func (e *Engine) scaleV(v VEdge, w complex128) VEdge {
	if w == cnum.One {
		return v
	}
	nw := e.weights.Lookup(v.W * w)
	if nw == cnum.Zero {
		return VZero()
	}
	return VEdge{W: nw, N: v.N}
}

// scaleM multiplies a matrix edge by a scalar.
func (e *Engine) scaleM(m MEdge, w complex128) MEdge {
	if w == cnum.One {
		return m
	}
	nw := e.weights.Lookup(m.W * w)
	if nw == cnum.Zero {
		return MZero()
	}
	return MEdge{W: nw, N: m.N}
}

// ScaleV multiplies a vector diagram by a scalar.
func (e *Engine) ScaleV(v VEdge, w complex128) VEdge { return e.scaleV(v, w) }

// ScaleM multiplies a matrix diagram by a scalar.
func (e *Engine) ScaleM(m MEdge, w complex128) MEdge { return e.scaleM(m, w) }

// KronV stacks the diagram hi on top of lo: the result represents
// hi ⊗ lo, with hi's variables re-labelled above lo's.
func (e *Engine) KronV(hi, lo VEdge) VEdge {
	shift := int32(lo.Qubits())
	return e.kronV(hi, lo, shift)
}

func (e *Engine) kronV(hi, lo VEdge, shift int32) VEdge {
	e.abortCheck()
	if hi.IsZero() || lo.IsZero() {
		return VZero()
	}
	if hi.IsTerminal() {
		return e.scaleV(lo, hi.W)
	}
	e0 := e.kronV(hi.N.E[0], lo, shift)
	e1 := e.kronV(hi.N.E[1], lo, shift)
	r := e.makeVNode(hi.N.V+shift, e0, e1)
	return e.scaleV(r, hi.W)
}

// KronM stacks the matrix diagram hi on top of lo, yielding hi ⊗ lo.
func (e *Engine) KronM(hi, lo MEdge) MEdge {
	shift := int32(lo.Qubits())
	return e.kronM(hi, lo, shift)
}

func (e *Engine) kronM(hi, lo MEdge, shift int32) MEdge {
	e.abortCheck()
	if hi.IsZero() || lo.IsZero() {
		return MZero()
	}
	if hi.IsTerminal() {
		return e.scaleM(lo, hi.W)
	}
	var children [4]MEdge
	for i := range children {
		children[i] = e.kronM(hi.N.E[i], lo, shift)
	}
	r := e.makeMNode(hi.N.V+shift, children)
	return e.scaleM(r, hi.W)
}

// ConjTranspose returns the conjugate transpose (adjoint) of m. The
// recursion memoises per node through an engine-owned scratch table
// (adjoints are weight-independent below the root, so entries stay
// valid until the next GC) and probes the abort layer — without the
// memo it is exponential on shared DAGs, exactly the diagrams the
// combination strategies build.
func (e *Engine) ConjTranspose(m MEdge) MEdge {
	if m.IsZero() {
		return m
	}
	return e.scaleM(e.conjT(m.N), conj(m.W))
}

// conjT returns the adjoint of the sub-diagram under n (weight one into
// n), memoised on the node id.
func (e *Engine) conjT(n *MNode) MEdge {
	if n == mTerminal {
		return MOne()
	}
	e.abortCheck()
	// The identity is self-adjoint; re-interning it would rebuild the
	// same node, so returning it directly is exact (and unconditional —
	// this is a canonical-form fact, not a gated optimisation).
	if n.isIdentity {
		return MEdge{W: cnum.One, N: n}
	}
	idx := mix(n.id, 0x85ebca77) & scratchMask
	if s := &e.ctTab[idx]; s.gen == e.cacheGen && s.n == n.id {
		return s.r
	}
	var children [4]MEdge
	children[0] = e.scaleM(e.conjT(n.E[0].N), conj(n.E[0].W))
	children[1] = e.scaleM(e.conjT(n.E[2].N), conj(n.E[2].W)) // swap off-diagonal quadrants
	children[2] = e.scaleM(e.conjT(n.E[1].N), conj(n.E[1].W))
	children[3] = e.scaleM(e.conjT(n.E[3].N), conj(n.E[3].W))
	r := e.makeMNode(n.V, children)
	e.ctTab[idx] = ctSlot{n: n.id, r: r, gen: e.cacheGen}
	return r
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// InnerProduct returns <a|b> = Σ_i conj(a_i)·b_i. The recursion
// memoises on node pairs through an engine-owned scratch table (the
// per-pair sums are weight-independent, so entries stay valid across
// calls until the next GC) — no allocation on the hot path.
func (e *Engine) InnerProduct(a, b VEdge) complex128 {
	return e.innerProduct(a, b)
}

func (e *Engine) innerProduct(a, b VEdge) complex128 {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	w := conj(a.W) * b.W
	if a.IsTerminal() {
		return w
	}
	idx := mix(a.N.id, b.N.id) & scratchMask
	if s := &e.ipTab[idx]; s.gen == e.cacheGen && s.aN == a.N.id && s.bN == b.N.id {
		return w * s.val
	}
	sub := e.innerProduct(a.N.E[0], b.N.E[0]) + e.innerProduct(a.N.E[1], b.N.E[1])
	e.ipTab[idx] = ipSlot{aN: a.N.id, bN: b.N.id, val: sub, gen: e.cacheGen}
	return w * sub
}

// Fidelity returns |<a|b>|² for two (normalised) states.
func (e *Engine) Fidelity(a, b VEdge) float64 {
	return cnum.Abs2(e.InnerProduct(a, b))
}

// Trace returns the trace of the matrix diagram (sum of diagonal
// entries) via memoised recursion — the primitive behind equivalence
// checking of combined operation matrices. Like InnerProduct, the memo
// is an engine-owned scratch table valid until the next GC, so repeated
// traces over shared structure are allocation-free and cheap.
func (e *Engine) Trace(m MEdge) complex128 {
	return m.W * e.trace(m.N)
}

func (e *Engine) trace(n *MNode) complex128 {
	if n == mTerminal {
		return 1
	}
	idx := mix(n.id, 0x9e3779b9) & scratchMask
	if s := &e.trTab[idx]; s.gen == e.cacheGen && s.n == n.id {
		return s.val
	}
	v := n.E[0].W*e.trace(n.E[0].N) + n.E[3].W*e.trace(n.E[3].N)
	e.trTab[idx] = trSlot{n: n.id, val: v, gen: e.cacheGen}
	return v
}
