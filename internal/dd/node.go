// Package dd implements the decision-diagram engine at the heart of the
// simulator: edge-weighted decision diagrams for quantum state vectors
// (two successors per node) and unitary matrices (four successors per
// node), in the style of QMDDs and the JKU/MQT DD package.
//
// Conventions:
//
//   - Qubits are numbered 0..n-1 with qubit 0 the least significant bit
//     of a basis-state index. A node's variable equals its qubit index;
//     the root of an n-qubit diagram has variable n-1 and the (shared)
//     terminal sits below variable 0.
//   - No variable skipping: every root-to-terminal path visits every
//     level. The identity on k qubits therefore takes k nodes (one per
//     level) — the "linear fashion" the paper relies on.
//   - Nodes are hash-consed per Engine, and edge weights are
//     canonicalised through a cnum.Table so structurally equal diagrams
//     are pointer-equal within an Engine.
//
// The multiplication routines follow Section II-B of the paper: the
// matrix-vector product recurses over quadrant/half decompositions, and
// matrix-matrix products recurse over quadrants, with memoisation in
// fixed-size compute caches.
package dd

import "repro/internal/cnum"

// VNode is a decision-diagram node of a state vector. E[0] leads to the
// sub-vector where this node's qubit is |0>, E[1] to the |1> half.
//
// Nodes live in their engine's arena (see arena.go) and are indexed by
// the open-addressing unique table (see table.go), whose slots hold the
// key hash and the node's arena index. On free-listed nodes E[0].N
// doubles as the free-list link.
type VNode struct {
	E    [2]VEdge
	V    int32  // qubit/variable index; -1 marks the terminal
	id   uint32 // engine-unique identity used for cache hashing
	mark uint32 // engine traversal epoch (see Engine.SizeV, GC marking)
	idx  uint32 // arena index, fixed for the node's storage lifetime
}

// MNode is a decision-diagram node of a matrix. The four successors are
// the quadrants in row-major order: E[2*row+col] with row the output
// (ket) bit and col the input (bra) bit of this node's qubit. Storage
// follows the same arena/unique-table scheme as VNode.
type MNode struct {
	E    [4]MEdge
	V    int32
	id   uint32
	mark uint32
	idx  uint32
	// isIdentity marks nodes whose sub-diagram is exactly the identity
	// on variables 0..V: zero off-diagonal quadrants, both diagonal
	// weights exactly one, and a shared diagonal child that is itself
	// identity (or the terminal). Stamped at interning time in makeMNode
	// from the already-normalised edges, so the multiplication kernels
	// can skip identity structure with a single field load (see
	// arith.go). The bit is derived — it is NOT part of the unique-table
	// key or its hash — and Audit recomputes it structurally (the
	// "identity-bit" check), which is the only way a corrupted bit is
	// caught.
	isIdentity bool
}

// VEdge is a weighted edge into a vector DD. The amplitude of a basis
// state is the product of edge weights along its root-to-terminal path.
type VEdge struct {
	W complex128
	N *VNode
}

// MEdge is a weighted edge into a matrix DD.
type MEdge struct {
	W complex128
	N *MNode
}

// Shared terminal nodes. They are immutable and engine-independent;
// their id 0 is reserved (engine node ids start at 1).
var (
	vTerminal = &VNode{V: -1}
	mTerminal = &MNode{V: -1}
)

// VZero is the zero vector edge (weight 0 into the terminal).
func VZero() VEdge { return VEdge{W: cnum.Zero, N: vTerminal} }

// VOne is the scalar-1 vector edge (used as the recursion base).
func VOne() VEdge { return VEdge{W: cnum.One, N: vTerminal} }

// MZero is the zero matrix edge.
func MZero() MEdge { return MEdge{W: cnum.Zero, N: mTerminal} }

// MOne is the scalar-1 matrix edge.
func MOne() MEdge { return MEdge{W: cnum.One, N: mTerminal} }

// IsTerminal reports whether the edge points at the terminal node.
func (e VEdge) IsTerminal() bool { return e.N == vTerminal }

// IsZero reports whether the edge is the zero vector.
func (e VEdge) IsZero() bool { return cnum.IsZero(e.W) }

// IsTerminal reports whether the edge points at the terminal node.
func (e MEdge) IsTerminal() bool { return e.N == mTerminal }

// IsZero reports whether the edge is the zero matrix.
func (e MEdge) IsZero() bool { return cnum.IsZero(e.W) }

// Var returns the variable of the node under the edge (-1 for the
// terminal).
func (e VEdge) Var() int { return int(e.N.V) }

// Var returns the variable of the node under the edge (-1 for the
// terminal).
func (e MEdge) Var() int { return int(e.N.V) }

// IsIdentity reports whether the sub-diagram under the edge is the
// identity matrix on its span (the edge weight still applies as a
// scalar factor, so the edge as a whole represents W·I). The terminal
// counts: it is the identity on zero qubits. O(1) — it reads the bit
// stamped by makeMNode.
func (e MEdge) IsIdentity() bool { return e.N == mTerminal || e.N.isIdentity }

// Qubits returns the number of qubits the diagram under e spans
// (its root variable + 1; 0 for a terminal edge).
func (e VEdge) Qubits() int { return int(e.N.V) + 1 }

// Qubits returns the number of qubits the diagram under e spans.
func (e MEdge) Qubits() int { return int(e.N.V) + 1 }

// Size returns the number of distinct non-terminal nodes reachable from
// e, the node count the paper's max-size strategy is parameterised on.
//
// Deprecated: Size allocates a visited map per call. Engine-owning
// callers should use Engine.SizeV, which reuses the engine's traversal
// epoch and is allocation-free; this walker remains for engine-less
// contexts (e.g. inspecting deserialised diagrams in tests).
func (e VEdge) Size() int {
	seen := make(map[*VNode]struct{})
	var walk func(*VNode)
	walk = func(n *VNode) {
		if n == vTerminal {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		walk(n.E[0].N)
		walk(n.E[1].N)
	}
	walk(e.N)
	return len(seen)
}

// Size returns the number of distinct non-terminal nodes reachable from
// e.
//
// Deprecated: see VEdge.Size; use Engine.SizeM where an engine is at
// hand.
func (e MEdge) Size() int {
	seen := make(map[*MNode]struct{})
	var walk func(*MNode)
	walk = func(n *MNode) {
		if n == mTerminal {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		for i := range n.E {
			walk(n.E[i].N)
		}
	}
	walk(e.N)
	return len(seen)
}
