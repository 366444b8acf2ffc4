package dd

import (
	"fmt"
	"math"
	"sort"
)

// Control describes a control qubit of a gate. A positive control
// activates the gate when the qubit is |1>, a negative control when it
// is |0> (negative controls let oracles such as Grover's be expressed
// without basis-flipping X gates).
type Control struct {
	Qubit    int
	Negative bool
}

// ctlKind classifies a qubit's role in the gate being built (see
// Engine.ctlBuf).
type ctlKind uint8

const (
	ctlNone ctlKind = iota
	ctlPos
	ctlNeg
)

// Pos is shorthand for a positive control on qubit q.
func Pos(q int) Control { return Control{Qubit: q} }

// Neg is shorthand for a negative control on qubit q.
func Neg(q int) Control { return Control{Qubit: q, Negative: true} }

// GateDD builds the matrix DD of a single-qubit gate u applied to
// `target` of an n-qubit register, controlled by the given (possibly
// empty) controls. The construction is the direct bottom-up sweep of
// ref [25] of the paper: gate DDs come out linear in n, never via
// explicit Kronecker products of dense matrices.
//
// Each distinct gate is built once per cache generation: later calls
// return the memoised edge, which is bit-identical to a rebuild (see
// gateSlot). The arguments are validated on every call, hit or miss.
//
// u is indexed u[row][col].
func (e *Engine) GateDD(u [2][2]complex128, n, target int, controls []Control) MEdge {
	pos, neg := e.loadControls(n, target, controls)
	if n > 64 {
		// The control masks do not fit the memo key.
		return e.buildGate(u, n, target)
	}
	k := gateKey{n: n, target: target, pos: pos, neg: neg}
	for i := 0; i < 4; i++ {
		k.u[i] = math.Float64bits(real(u[i/2][i%2]))
		k.u[i+4] = math.Float64bits(imag(u[i/2][i%2]))
	}
	s := &lazy(&e.gateTab, gateSize)[k.hash()&gateMask]
	e.stats.GateLookups++
	if s.gen == e.cacheGen && s.key == k {
		e.stats.GateHits++
		return s.r
	}
	foreign := e.foreign
	r := e.buildGate(u, n, target)
	if e.foreign == foreign {
		*s = gateSlot{key: k, r: r, gen: e.cacheGen}
	}
	return r
}

// Gate-memo sizing: a direct-mapped table like the compute caches, far
// smaller because a circuit has few distinct gates (Grover on 16 qubits
// builds 19 distinct gates in 7,252 calls).
const (
	gateBits = 10
	gateSize = 1 << gateBits
	gateMask = gateSize - 1
)

// gateKey identifies a gate for the memo: the bit patterns of u's
// entries (real parts, then imaginary parts), the register width, the
// target and the positive and negative control masks. Bits, not ==:
// Lookup passes an exact 1 through with the sign of its imaginary zero,
// so gates differing only in ±0 can build different weight bits.
type gateKey struct {
	u         [8]uint64
	n, target int
	pos, neg  uint64
}

func (k *gateKey) hash() uint32 {
	h := mix(uint32(k.n), uint32(k.target))
	h = mix(h^uint32(k.pos), uint32(k.pos>>32)^uint32(k.neg))
	h = mix(h, uint32(k.neg>>32))
	for _, b := range k.u {
		h = mix(h^uint32(b), uint32(b>>32))
	}
	return h
}

// gateSlot is one gate-memo entry, valid while gen == cacheGen.
//
// Why a hit equals a rebuild: weight representatives are pairwise not
// within cnum.Tol, so when a Lookup returns a value numerically equal
// to its query, that representative is the query's only match, now and
// after any later insert, and a rebuild repeats the lookup exactly.
// makeMNode interns nothing but normDiv's quotients, and the top weight
// it returns is one of its children's weights, left raw. The build
// feeds it only representatives and exact 0/1, so every top it returns
// is a representative too, the gate's root included, and the lookups
// that can return something else are the four entry lookups and
// normDiv's quotient lookup; both count such "foreign" results in
// Engine.foreign, and a build that moved the counter is not recorded.
// (An entry lookup returning zero is not foreign: Lookup's near-zero
// test does not read the table.) With every weight fixed, makeMNode
// re-finds the same nodes, which no one frees before the next GC — and
// GC, like an abort, bumps cacheGen.
//
// Under fault injection, a bit flip in a memoised node is handed out
// again until the memo expires, where a rebuild would re-intern a clean
// node; Audit still sees it (DESIGN.md §10).
type gateSlot struct {
	key gateKey
	r   MEdge
	gen uint32
}

// loadControls validates the gate's qubits, fills e.ctlBuf with each
// qubit's control kind and returns the positive and negative control
// masks (meaningful for n <= 64).
func (e *Engine) loadControls(n, target int, controls []Control) (pos, neg uint64) {
	if target < 0 || target >= n {
		panic(fmt.Sprintf("dd: GateDD: target %d out of range for %d qubits", target, n))
	}
	// Per-qubit control kind, in an engine-owned scratch buffer — GateDD
	// runs once per gate, and a map here costs an allocation plus a
	// hashed lookup per level.
	if cap(e.ctlBuf) < n {
		e.ctlBuf = make([]ctlKind, n)
	}
	ctl := e.ctlBuf[:n]
	for i := range ctl {
		ctl[i] = ctlNone
	}
	for _, c := range controls {
		if c.Qubit < 0 || c.Qubit >= n {
			panic(fmt.Sprintf("dd: GateDD: control %d out of range for %d qubits", c.Qubit, n))
		}
		if c.Qubit == target {
			panic(fmt.Sprintf("dd: GateDD: qubit %d is both control and target", c.Qubit))
		}
		if ctl[c.Qubit] != ctlNone {
			panic(fmt.Sprintf("dd: GateDD: duplicate control on qubit %d", c.Qubit))
		}
		if c.Negative {
			ctl[c.Qubit] = ctlNeg
			neg |= 1 << uint(c.Qubit)
		} else {
			ctl[c.Qubit] = ctlPos
			pos |= 1 << uint(c.Qubit)
		}
	}
	return pos, neg
}

// buildGate is GateDD's direct construction, for the controls
// loadControls left in e.ctlBuf.
func (e *Engine) buildGate(u [2][2]complex128, n, target int) MEdge {
	ctl := e.ctlBuf[:n]
	// em[2*row+col] tracks, for each entry of the target-level 2x2 block,
	// the sub-diagram on the qubits processed so far (all below target).
	var em [4]MEdge
	for row := 0; row < 2; row++ {
		for col := 0; col < 2; col++ {
			q := u[row][col]
			w := e.weights.Lookup(q)
			if w != q && w != 0 {
				e.foreign++
			}
			if w == 0 {
				em[2*row+col] = MZero()
			} else {
				em[2*row+col] = MEdge{W: w, N: mTerminal}
			}
		}
	}

	for z := 0; z < target; z++ {
		isCtl, neg := ctl[z] != ctlNone, ctl[z] == ctlNeg
		for i := range em {
			diagonal := i == 0 || i == 3
			switch {
			case !isCtl:
				em[i] = e.makeMNode(int32(z), [4]MEdge{em[i], MZero(), MZero(), em[i]})
			case diagonal:
				// When the control is inactive the whole operation is the
				// identity, whose target-diagonal blocks are identities on
				// the lower qubits.
				id := e.Identity(z)
				if neg {
					em[i] = e.makeMNode(int32(z), [4]MEdge{em[i], MZero(), MZero(), id})
				} else {
					em[i] = e.makeMNode(int32(z), [4]MEdge{id, MZero(), MZero(), em[i]})
				}
			default:
				// Off-diagonal target blocks of the identity are zero.
				if neg {
					em[i] = e.makeMNode(int32(z), [4]MEdge{em[i], MZero(), MZero(), MZero()})
				} else {
					em[i] = e.makeMNode(int32(z), [4]MEdge{MZero(), MZero(), MZero(), em[i]})
				}
			}
		}
	}

	f := e.makeMNode(int32(target), em)

	for z := target + 1; z < n; z++ {
		isCtl, neg := ctl[z] != ctlNone, ctl[z] == ctlNeg
		switch {
		case !isCtl:
			f = e.makeMNode(int32(z), [4]MEdge{f, MZero(), MZero(), f})
		case neg:
			f = e.makeMNode(int32(z), [4]MEdge{f, MZero(), MZero(), e.Identity(z)})
		default:
			f = e.makeMNode(int32(z), [4]MEdge{e.Identity(z), MZero(), MZero(), f})
		}
	}
	return f
}

// SwapDD builds the matrix DD exchanging qubits a and b of an n-qubit
// register, composed from three CX gates.
func (e *Engine) SwapDD(n, a, b int) MEdge {
	if a == b {
		return e.Identity(n)
	}
	x := [2][2]complex128{{0, 1}, {1, 0}}
	cx1 := e.GateDD(x, n, b, []Control{Pos(a)})
	cx2 := e.GateDD(x, n, a, []Control{Pos(b)})
	return e.MulMat(cx1, e.MulMat(cx2, cx1))
}

// MaxOracleQubits is the largest register FromPermutation and
// FromDiagonal accept: both call back once per basis state, and
// FromPermutation holds O(2^n) words while it builds.
const MaxOracleQubits = 24

// FromPermutation builds the matrix DD of the basis-state permutation
// perm on n qubits: the unitary with entries M[perm(x)][x] = 1. This is
// the DD-construct primitive of Section IV-B — a Boolean oracle is
// turned into a DD directly rather than through elementary gates.
//
// perm must be a bijection on [0, 2^n); this is validated, once per x
// in ascending order, before any node is created. The DD is built top
// down: the entries of a block are partitioned into its four quadrants
// by the row and column bit of the block's qubit, and each quadrant is
// built the same way one qubit lower. That is O(n·2^n) partition work
// and at most one node per non-empty block, with no DD additions.
func (e *Engine) FromPermutation(n int, perm func(uint64) uint64) MEdge {
	if n < 0 || n > MaxOracleQubits {
		panic(fmt.Sprintf("dd: FromPermutation: qubit count %d out of supported range", n))
	}
	size := uint64(1) << uint(n)
	entries := make([]uint64, size)      // entry (perm(x), x) packed as perm(x)<<n | x
	seen := make([]uint64, (size+63)/64) // bitset of the images so far
	for x := uint64(0); x < size; x++ {
		y := perm(x)
		if y >= size {
			panic(fmt.Sprintf("dd: FromPermutation: perm(%d) = %d out of range", x, y))
		}
		bit := uint64(1) << (y & 63)
		if seen[y/64]&bit != 0 {
			panic(fmt.Sprintf("dd: FromPermutation: perm is not injective (image %d repeated)", y))
		}
		seen[y/64] |= bit
		entries[x] = y<<uint(n) | x
	}
	b := permBuilder{e: e, n: uint(n)}
	return b.block(n-1, entries, make([]uint64, size))
}

// permBuilder carries FromPermutation's recursion.
type permBuilder struct {
	e *Engine
	n uint
}

// block builds the DD of the block holding the packed entries src, all
// of which agree on the row and column bits above qubit q. It
// partitions them into the same range of dst by quadrant 2·row+col of
// bit q and recurses into each quadrant with the two buffers' roles
// swapped.
func (b *permBuilder) block(q int, src, dst []uint64) MEdge {
	if len(src) == 0 {
		return MZero()
	}
	if q < 0 {
		return MOne()
	}
	quadrant := func(p uint64) int {
		return int(p>>(b.n+uint(q))&1)<<1 | int(p>>uint(q)&1)
	}
	var end [4]int
	for _, p := range src {
		end[quadrant(p)]++
	}
	for i := 1; i < 4; i++ {
		end[i] += end[i-1]
	}
	next := [4]int{0, end[0], end[1], end[2]}
	for _, p := range src {
		i := quadrant(p)
		dst[next[i]] = p
		next[i]++
	}
	var es [4]MEdge
	lo := 0
	for i, hi := range end {
		es[i] = b.block(q-1, dst[lo:hi], src[lo:hi])
		lo = hi
	}
	return b.e.makeMNode(int32(q), es)
}

// FromDiagonal builds the diagonal matrix DD with entries phase(x) on n
// qubits — the natural representation of phase oracles. The callback is
// invoked once per basis state, so the construction is Θ(2^n); intended
// for oracle sizes up to ~20 qubits.
func (e *Engine) FromDiagonal(n int, phase func(uint64) complex128) MEdge {
	if n < 0 || n > MaxOracleQubits {
		panic(fmt.Sprintf("dd: FromDiagonal: qubit count %d out of supported range", n))
	}
	var build func(level int, prefix uint64) MEdge
	build = func(level int, prefix uint64) MEdge {
		if level == 0 {
			w := e.weights.Lookup(phase(prefix))
			if w == 0 {
				return MZero()
			}
			return MEdge{W: w, N: mTerminal}
		}
		lo := build(level-1, prefix)
		hi := build(level-1, prefix|1<<uint(level-1))
		return e.makeMNode(int32(level-1), [4]MEdge{lo, MZero(), MZero(), hi})
	}
	return build(n, 0)
}

// ControlledOp wraps an existing k-qubit operation DD (acting on qubits
// 0..k-1) with one additional control on qubit k (the next level up).
// When the control is inactive, the identity applies.
func (e *Engine) ControlledOp(op MEdge, negative bool) MEdge {
	k := op.Qubits()
	id := e.Identity(k)
	if negative {
		return e.makeMNode(int32(k), [4]MEdge{op, MZero(), MZero(), id})
	}
	return e.makeMNode(int32(k), [4]MEdge{id, MZero(), MZero(), op})
}

// ExtendAbove pads an operation DD acting on qubits 0..k-1 with
// identities so it spans n qubits.
func (e *Engine) ExtendAbove(op MEdge, n int) MEdge {
	for z := op.Qubits(); z < n; z++ {
		op = e.makeMNode(int32(z), [4]MEdge{op, MZero(), MZero(), op})
	}
	return op
}

// SortedControls returns the controls sorted by qubit, for deterministic
// diagnostics.
func SortedControls(controls []Control) []Control {
	out := append([]Control(nil), controls...)
	sort.Slice(out, func(i, j int) bool { return out[i].Qubit < out[j].Qubit })
	return out
}
