package dd

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cnum"
)

// ZeroState returns the DD of |0…0> on n qubits.
func (e *Engine) ZeroState(n int) VEdge {
	return e.BasisState(n, 0)
}

// BasisState returns the DD of the computational basis state |index> on
// n qubits (bit q of index is the value of qubit q).
func (e *Engine) BasisState(n int, index uint64) VEdge {
	if n < 0 || n > 63 {
		panic(fmt.Sprintf("dd: BasisState(%d): qubit count out of range", n))
	}
	if n < 64 && index >= 1<<uint(n) {
		panic(fmt.Sprintf("dd: BasisState: index %d out of range for %d qubits", index, n))
	}
	v := VOne()
	for q := 0; q < n; q++ {
		if index>>uint(q)&1 == 0 {
			v = e.makeVNode(int32(q), v, VZero())
		} else {
			v = e.makeVNode(int32(q), VZero(), v)
		}
	}
	return v
}

// FromVector builds the DD of an explicit amplitude vector. len(amps)
// must be a power of two. Used by tests and small-scale tooling.
func (e *Engine) FromVector(amps []complex128) VEdge {
	n := 0
	for 1<<uint(n) < len(amps) {
		n++
	}
	if 1<<uint(n) != len(amps) {
		panic(fmt.Sprintf("dd: FromVector: length %d is not a power of two", len(amps)))
	}
	var build func(level int, base uint64) VEdge
	build = func(level int, base uint64) VEdge {
		if level == 0 {
			w := e.weights.Lookup(amps[base])
			if w == cnum.Zero {
				return VZero()
			}
			return VEdge{W: w, N: vTerminal}
		}
		lo := build(level-1, base)
		hi := build(level-1, base|1<<uint(level-1))
		return e.makeVNode(int32(level-1), lo, hi)
	}
	return build(n, 0)
}

// Amplitude returns the amplitude of basis state index in v, the product
// of the edge weights along the corresponding path.
func (v VEdge) Amplitude(index uint64) complex128 {
	w := v.W
	n := v.N
	for n != vTerminal {
		c := n.E[index>>uint(n.V)&1]
		w *= c.W
		n = c.N
	}
	return w
}

// ToVector expands the diagram into a dense amplitude slice of length
// 2^n where n is the qubit span. Guarded against blow-up; intended for
// tests and small instances.
func (v VEdge) ToVector() []complex128 {
	n := v.Qubits()
	if n > 24 {
		panic(fmt.Sprintf("dd: ToVector on %d qubits would allocate 2^%d amplitudes", n, n))
	}
	out := make([]complex128, 1<<uint(n))
	var walk func(e VEdge, w complex128, level int, base uint64)
	walk = func(e VEdge, w complex128, level int, base uint64) {
		w *= e.W
		if w == 0 {
			return
		}
		if e.IsTerminal() {
			out[base] = w
			return
		}
		walk(e.N.E[0], w, level-1, base)
		walk(e.N.E[1], w, level-1, base|1<<uint(e.N.V))
	}
	walk(v, 1, n-1, 0)
	return out
}

// ToMatrix expands a matrix diagram into a dense 2^n × 2^n matrix
// (row-major [row][col]). Intended for tests and small instances.
func (m MEdge) ToMatrix() [][]complex128 {
	n := m.Qubits()
	if n > 12 {
		panic(fmt.Sprintf("dd: ToMatrix on %d qubits would allocate 4^%d entries", n, n))
	}
	dim := 1 << uint(n)
	out := make([][]complex128, dim)
	for i := range out {
		out[i] = make([]complex128, dim)
	}
	var walk func(e MEdge, w complex128, row, col uint64)
	walk = func(e MEdge, w complex128, row, col uint64) {
		w *= e.W
		if w == 0 {
			return
		}
		if e.IsTerminal() {
			out[row][col] = w
			return
		}
		bit := uint64(1) << uint(e.N.V)
		walk(e.N.E[0], w, row, col)
		walk(e.N.E[1], w, row, col|bit)
		walk(e.N.E[2], w, row|bit, col)
		walk(e.N.E[3], w, row|bit, col|bit)
	}
	walk(m, 1, 0, 0)
	return out
}

// mass returns, for every node, the sum over all paths to the terminal
// of the squared magnitudes of the edge-weight products — the recursive
// "probability mass" below a node. The top edge weight is excluded.
func mass(n *VNode, memo map[*VNode]float64) float64 {
	if n == vTerminal {
		return 1
	}
	if m, ok := memo[n]; ok {
		return m
	}
	m := cnum.Abs2(n.E[0].W)*mass(n.E[0].N, memo) + cnum.Abs2(n.E[1].W)*mass(n.E[1].N, memo)
	memo[n] = m
	return m
}

// Norm returns the 2-norm of the state vector.
func (v VEdge) Norm() float64 {
	memo := make(map[*VNode]float64)
	return math.Sqrt(cnum.Abs2(v.W) * mass(v.N, memo))
}

// Normalize rescales v to unit 2-norm. Panics on the zero vector.
func (e *Engine) Normalize(v VEdge) VEdge {
	n := v.Norm()
	if n < cnum.Tol {
		panic("dd: Normalize of (near-)zero vector")
	}
	return e.canonV(e.scaleV(v, complex(1/n, 0)))
}

// Prob returns the probability that measuring qubit q of state v yields
// outcome (0 or 1). v must be normalised.
func (v VEdge) Prob(q int, outcome int) float64 {
	if outcome != 0 && outcome != 1 {
		panic(fmt.Sprintf("dd: Prob: outcome %d not in {0,1}", outcome))
	}
	massMemo := make(map[*VNode]float64)
	memo := make(map[*VNode]float64)
	var rec func(n *VNode) float64
	rec = func(n *VNode) float64 {
		if n == vTerminal {
			// Qubit q does not appear below; with no skipping this only
			// happens if q < 0, which the caller excludes.
			return 0
		}
		if p, ok := memo[n]; ok {
			return p
		}
		var p float64
		if int(n.V) == q {
			c := n.E[outcome]
			p = cnum.Abs2(c.W) * mass(c.N, massMemo)
		} else {
			p = cnum.Abs2(n.E[0].W)*rec(n.E[0].N) + cnum.Abs2(n.E[1].W)*rec(n.E[1].N)
		}
		memo[n] = p
		return p
	}
	if q < 0 || q >= v.Qubits() {
		panic(fmt.Sprintf("dd: Prob: qubit %d out of range for %d-qubit state", q, v.Qubits()))
	}
	return cnum.Abs2(v.W) * rec(v.N)
}

// Probabilities expands all basis-state probabilities (2^n entries).
// Intended for tests and small instances.
func (v VEdge) Probabilities() []float64 {
	amps := v.ToVector()
	out := make([]float64, len(amps))
	for i, a := range amps {
		out[i] = cnum.Abs2(a)
	}
	return out
}

// Sampler draws measurement outcomes of all qubits from one state
// without collapsing it. Building it walks the state DD once; each draw
// then descends a single path and allocates nothing.
type Sampler struct {
	nodes []sampleNode
	root  int32 // index into nodes, -1 for a state without qubits
}

// sampleNode is one state node's branch masses: p1 is the mass below
// the 1-edge, total that of both edges, next the children's indices
// (-1 at the terminal).
type sampleNode struct {
	p1, total float64
	bit       uint64 // 1 << the node's qubit
	next      [2]int32
}

// Sampler prepares v for repeated sampling. v must be normalised.
func (v VEdge) Sampler() *Sampler {
	s := &Sampler{}
	memo := make(map[*VNode]float64)
	index := make(map[*VNode]int32)
	var visit func(n *VNode) int32
	visit = func(n *VNode) int32 {
		if n == vTerminal {
			return -1
		}
		if i, ok := index[n]; ok {
			return i
		}
		p0 := cnum.Abs2(n.E[0].W) * mass(n.E[0].N, memo)
		p1 := cnum.Abs2(n.E[1].W) * mass(n.E[1].N, memo)
		i := int32(len(s.nodes))
		index[n] = i
		s.nodes = append(s.nodes, sampleNode{p1: p1, total: p0 + p1, bit: 1 << uint(n.V)})
		c0 := visit(n.E[0].N)
		c1 := visit(n.E[1].N)
		s.nodes[i].next = [2]int32{c0, c1}
		return i
	}
	s.root = visit(v.N)
	return s
}

// Draw samples one outcome (bit q of the result is qubit q), consuming
// one rng value per node on the sampled path (none at a node without
// mass, which a normalised state does not reach).
func (s *Sampler) Draw(rng *rand.Rand) uint64 {
	var idx uint64
	for i := s.root; i >= 0; {
		n := &s.nodes[i]
		bit := 0
		if n.total > 0 && rng.Float64()*n.total < n.p1 {
			bit = 1
			idx |= n.bit
		}
		i = n.next[bit]
	}
	return idx
}

// MeasureQubit measures qubit q, collapsing the state. It returns the
// observed bit and the renormalised post-measurement state. v must be
// normalised.
func (e *Engine) MeasureQubit(v VEdge, q int, rng *rand.Rand) (int, VEdge) {
	p1 := v.Prob(q, 1)
	bit := 0
	if rng.Float64() < p1 {
		bit = 1
	}
	return bit, e.Project(v, q, bit)
}

// Project projects the state onto qubit q having the given value and
// renormalises. Panics if the projected state has (near-)zero norm.
// The per-call memo lives in an engine-owned scratch table (stamped
// with a per-call generation), so projecting allocates nothing beyond
// the result nodes themselves.
func (e *Engine) Project(v VEdge, q int, value int) VEdge {
	e.bumpProjGen()
	projected := e.scaleV(e.project(v.N, q, value), v.W)
	return e.Normalize(projected)
}

func (e *Engine) project(n *VNode, q, value int) VEdge {
	if n == vTerminal {
		return VOne()
	}
	idx := mix(n.id, 0x85ebca77) & scratchMask
	tab := lazy(&e.projTab, scratchSize)
	if s := &tab[idx]; s.gen == e.projGen && s.n == n.id {
		return s.r
	}
	var r VEdge
	if int(n.V) == q {
		if value == 0 {
			r = e.makeVNode(n.V, n.E[0], VZero())
		} else {
			r = e.makeVNode(n.V, VZero(), n.E[1])
		}
	} else {
		c0 := e.project(n.E[0].N, q, value)
		c1 := e.project(n.E[1].N, q, value)
		r = e.makeVNode(n.V,
			e.scaleV(c0, n.E[0].W),
			e.scaleV(c1, n.E[1].W))
	}
	tab[idx] = projSlot{n: n.id, r: r, gen: e.projGen}
	return r
}

// ResetQubit projects qubit q to the measured value and then flips it to
// |0> if the measurement yielded 1 — the reset operation used by
// semiclassical (one-control-qubit) phase estimation.
func (e *Engine) ResetQubit(v VEdge, q int, rng *rand.Rand) (int, VEdge) {
	bit, post := e.MeasureQubit(v, q, rng)
	if bit == 1 {
		x := e.GateDD([2][2]complex128{{0, 1}, {1, 0}}, post.Qubits(), q, nil)
		post = e.MulVec(x, post)
	}
	return bit, post
}
