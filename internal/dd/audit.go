package dd

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cnum"
)

// Integrity auditing. The whole speedup argument of the simulator rests
// on canonicity: equal sub-diagrams share one node, so a single
// corrupted edge weight or broken unique-table invariant silently
// poisons every later multiplication while still producing
// plausible-looking amplitudes. Audit re-derives the invariants the
// engine maintains by construction and reports the first violation as a
// typed *IntegrityError:
//
//   - unique-table canonicity: every live node is findable under its
//     key, exactly once, and its stored hash matches a recomputation
//     from its fields;
//   - normalisation: some edge weight is exactly one, no weight exceeds
//     magnitude one (beyond the tie tolerance), zero weights point at
//     the terminal, and every weight is finite and bit-identical to a
//     canonical cnum representative;
//   - structure: no variable skipping (a node's non-zero edges lead to
//     nodes exactly one level below; the terminal only below level 0),
//     node ids are in the engine's issued range;
//   - memory: unique-table live/tombstone counters match the slots,
//     the arena free lists have exactly the recorded length, and every
//     arena node is either live in a table or free-listed;
//   - terminals: the shared terminal sentinels are untouched.
//
// Audit is O(live nodes) and allocates only for the free-list cycle
// check; it is meant for Options.VerifyEvery cadences, not per-gate hot
// paths. The cheap per-state monitors (CheckNorm, CheckUnitary) are
// separate.

// IntegrityError reports a violated DD invariant. It is the typed
// currency of the verification layer: Engine.Audit, the reachable-state
// audits and the online monitors all return it, and core's repair path
// classifies on it.
type IntegrityError struct {
	// Check names the violated invariant: "terminal", "id", "level",
	// "hash", "unique-table", "zero-edge", "weight-finite",
	// "weight-canonical", "normalization", "identity-bit",
	// "table-counters", "arena", "free-list", "identity-cache", "norm",
	// "unitarity".
	Check string
	// Matrix is true when the failing node lives in the matrix table.
	Matrix bool
	// NodeID is the engine-unique id of the failing node (0 when the
	// failure is not attributable to one node).
	NodeID uint32
	// Var is the failing node's variable (level).
	Var int32
	// Path is the root-relative edge path to the failing node for
	// diagram-scoped audits (e.g. "1.0.1": successor 1 of the root, then
	// successor 0, …). Empty for whole-table audits.
	Path string
	// Detail describes the violation.
	Detail string
}

// Error implements error.
func (e *IntegrityError) Error() string {
	kind := "vnode"
	if e.Matrix {
		kind = "mnode"
	}
	s := fmt.Sprintf("dd: integrity violation (%s): %s id=%d var=%d: %s", e.Check, kind, e.NodeID, e.Var, e.Detail)
	if e.Path != "" {
		s += fmt.Sprintf(" (path %s)", e.Path)
	}
	return s
}

// auditTerminals checks the shared terminal sentinels, which every
// diagram bottoms out in.
func auditTerminals() *IntegrityError {
	if vTerminal.V != -1 || vTerminal.id != 0 {
		return &IntegrityError{Check: "terminal", Var: vTerminal.V, NodeID: vTerminal.id,
			Detail: "vector terminal sentinel corrupted"}
	}
	if mTerminal.V != -1 || mTerminal.id != 0 {
		return &IntegrityError{Check: "terminal", Matrix: true, Var: mTerminal.V, NodeID: mTerminal.id,
			Detail: "matrix terminal sentinel corrupted"}
	}
	return nil
}

// auditWeight applies the per-edge weight invariants shared by vector
// and matrix nodes.
func (e *Engine) auditWeight(w complex128) (check, detail string) {
	if math.IsNaN(real(w)) || math.IsNaN(imag(w)) || math.IsInf(real(w), 0) || math.IsInf(imag(w), 0) {
		return "weight-finite", fmt.Sprintf("edge weight %v is not finite", w)
	}
	if cnum.Abs2(w) > 1+magRelTol {
		return "normalization", fmt.Sprintf("edge weight %v has magnitude above one", w)
	}
	if !e.weights.Canonical(w) {
		return "weight-canonical", fmt.Sprintf("edge weight %v is not a canonical representative", w)
	}
	return "", ""
}

// auditVNode checks one live vector node's local invariants.
func (e *Engine) auditVNode(n *VNode) *IntegrityError {
	fail := func(check, detail string) *IntegrityError {
		return &IntegrityError{Check: check, NodeID: n.id, Var: n.V, Detail: detail}
	}
	if n.id == 0 || n.id >= e.nextID {
		return fail("id", fmt.Sprintf("node id outside issued range [1,%d)", e.nextID))
	}
	if n.V < 0 {
		return fail("level", "negative variable on a non-terminal node")
	}
	if h := hashVKey(n.V, n.E[0], n.E[1]); h != n.hash {
		return fail("hash", fmt.Sprintf("stored hash %#x, recomputed %#x — node fields mutated after interning", n.hash, h))
	}
	one := false
	for i := range n.E {
		w, c := n.E[i].W, n.E[i].N
		if w == cnum.Zero {
			if c != vTerminal {
				return fail("zero-edge", fmt.Sprintf("zero-weight edge %d does not point at the terminal", i))
			}
			continue
		}
		if check, detail := e.auditWeight(w); check != "" {
			return fail(check, fmt.Sprintf("edge %d: %s", i, detail))
		}
		if w == cnum.One {
			one = true
		}
		if c.V != n.V-1 {
			return fail("level", fmt.Sprintf("edge %d skips from level %d to %d", i, n.V, c.V))
		}
	}
	if !one {
		return fail("normalization", "no edge weight is exactly one")
	}
	return nil
}

// auditMNode checks one live matrix node's local invariants; see
// auditVNode.
func (e *Engine) auditMNode(n *MNode) *IntegrityError {
	fail := func(check, detail string) *IntegrityError {
		return &IntegrityError{Check: check, Matrix: true, NodeID: n.id, Var: n.V, Detail: detail}
	}
	if n.id == 0 || n.id >= e.nextID {
		return fail("id", fmt.Sprintf("node id outside issued range [1,%d)", e.nextID))
	}
	if n.V < 0 {
		return fail("level", "negative variable on a non-terminal node")
	}
	if h := hashMKey(n.V, &n.E); h != n.hash {
		return fail("hash", fmt.Sprintf("stored hash %#x, recomputed %#x — node fields mutated after interning", n.hash, h))
	}
	one := false
	for i := range n.E {
		w, c := n.E[i].W, n.E[i].N
		if w == cnum.Zero {
			if c != mTerminal {
				return fail("zero-edge", fmt.Sprintf("zero-weight edge %d does not point at the terminal", i))
			}
			continue
		}
		if check, detail := e.auditWeight(w); check != "" {
			return fail(check, fmt.Sprintf("edge %d: %s", i, detail))
		}
		if w == cnum.One {
			one = true
		}
		if c.V != n.V-1 {
			return fail("level", fmt.Sprintf("edge %d skips from level %d to %d", i, n.V, c.V))
		}
	}
	if !one {
		return fail("normalization", "no edge weight is exactly one")
	}
	// The isIdentity bit is derived and deliberately excluded from the
	// stored hash, so the hash check above cannot see a corrupted bit —
	// recomputing the shape from the edges here is the only detector.
	// (With a single corrupted bit the children are honest, so using the
	// child's bit in the recomputation is sound; a corrupted child fails
	// its own audit.)
	if want := identityShape(n); n.isIdentity != want {
		return fail("identity-bit", fmt.Sprintf("stored isIdentity=%v, structure says %v", n.isIdentity, want))
	}
	return nil
}

// identityShape recomputes, from the stored (normalised) edges, whether
// n is an identity node — the ground truth for the stamped isIdentity
// bit.
func identityShape(n *MNode) bool {
	return n.E[1].W == cnum.Zero && n.E[2].W == cnum.Zero &&
		n.E[0].W == cnum.One && n.E[3].W == cnum.One &&
		n.E[0].N == n.E[3].N &&
		(n.E[0].N == mTerminal || n.E[0].N.isIdentity)
}

// Audit verifies the engine's structural invariants — unique-table
// canonicity and stored-hash consistency, weight canonicalisation and
// normalisation on every edge of every live node, arena/free-list
// accounting, and the terminal sentinels — and returns the first
// violation as a *IntegrityError (nil when the engine is sound). The
// engine is not modified. Cost is O(live nodes); see Options.VerifyEvery
// in internal/core for the intended cadence.
func (e *Engine) Audit() error {
	if err := auditTerminals(); err != nil {
		return err
	}

	live, dead := 0, 0
	for _, s := range e.vUnique.slots {
		switch s {
		case nil:
		case vTombstone:
			dead++
		default:
			live++
			if err := e.auditVNode(s); err != nil {
				return err
			}
			// Canonicity: probing with the node's own key must land on
			// this very node — a duplicate or a mis-placed entry (e.g.
			// after a corrupted rehash) surfaces as a different hit or a
			// miss.
			if hit, _ := e.vUnique.find(s.hash, s.V, s.E[0], s.E[1]); hit != s {
				return &IntegrityError{Check: "unique-table", NodeID: s.id, Var: s.V,
					Detail: "node is not findable under its own key (duplicate or misplaced entry)"}
			}
		}
	}
	if live != e.vUnique.live || dead != e.vUnique.dead {
		return &IntegrityError{Check: "table-counters",
			Detail: fmt.Sprintf("vector table counts live=%d dead=%d, slots hold %d/%d", e.vUnique.live, e.vUnique.dead, live, dead)}
	}

	live, dead = 0, 0
	for _, s := range e.mUnique.slots {
		switch s {
		case nil:
		case mTombstone:
			dead++
		default:
			live++
			if err := e.auditMNode(s); err != nil {
				return err
			}
			if hit, _ := e.mUnique.find(s.hash, s.V, &s.E); hit != s {
				return &IntegrityError{Check: "unique-table", Matrix: true, NodeID: s.id, Var: s.V,
					Detail: "node is not findable under its own key (duplicate or misplaced entry)"}
			}
		}
	}
	if live != e.mUnique.live || dead != e.mUnique.dead {
		return &IntegrityError{Check: "table-counters", Matrix: true,
			Detail: fmt.Sprintf("matrix table counts live=%d dead=%d, slots hold %d/%d", e.mUnique.live, e.mUnique.dead, live, dead)}
	}

	if err := e.auditArenas(); err != nil {
		return err
	}

	// The identity cache is marked as a GC root, so its diagrams must
	// still be live and well-formed.
	for k, id := range e.identity {
		if k == 0 {
			continue
		}
		if id.W != cnum.One || id.N == mTerminal || int(id.N.V) != k-1 || !id.N.isIdentity {
			return &IntegrityError{Check: "identity-cache", Matrix: true, NodeID: id.N.id, Var: id.N.V,
				Detail: fmt.Sprintf("cached identity over %d qubits is malformed", k)}
		}
	}
	return nil
}

// auditArenas checks free-list length against the recorded count and
// total arena occupancy against live + free (every node ever allocated
// is either interned or free-listed; a node in neither leaked, a node
// in both double-freed).
func (e *Engine) auditArenas() *IntegrityError {
	freeLen, seen := 0, make(map[*VNode]bool)
	for n := e.vArena.free; n != nil; n = n.E[0].N {
		if seen[n] {
			return &IntegrityError{Check: "free-list", NodeID: n.id, Var: n.V, Detail: "cycle in the vector arena free list"}
		}
		seen[n] = true
		freeLen++
		if freeLen > e.vArena.nfree {
			break
		}
	}
	if freeLen != e.vArena.nfree {
		return &IntegrityError{Check: "free-list",
			Detail: fmt.Sprintf("vector free list holds %d nodes, arena records %d", freeLen, e.vArena.nfree)}
	}
	total := 0
	for _, c := range e.vArena.chunks {
		total += len(c)
	}
	if total != e.vUnique.live+e.vArena.nfree {
		return &IntegrityError{Check: "arena",
			Detail: fmt.Sprintf("vector arena holds %d nodes, %d live + %d free recorded", total, e.vUnique.live, e.vArena.nfree)}
	}

	freeLenM, seenM := 0, make(map[*MNode]bool)
	for n := e.mArena.free; n != nil; n = n.E[0].N {
		if seenM[n] {
			return &IntegrityError{Check: "free-list", Matrix: true, NodeID: n.id, Var: n.V, Detail: "cycle in the matrix arena free list"}
		}
		seenM[n] = true
		freeLenM++
		if freeLenM > e.mArena.nfree {
			break
		}
	}
	if freeLenM != e.mArena.nfree {
		return &IntegrityError{Check: "free-list", Matrix: true,
			Detail: fmt.Sprintf("matrix free list holds %d nodes, arena records %d", freeLenM, e.mArena.nfree)}
	}
	total = 0
	for _, c := range e.mArena.chunks {
		total += len(c)
	}
	if total != e.mUnique.live+e.mArena.nfree {
		return &IntegrityError{Check: "arena", Matrix: true,
			Detail: fmt.Sprintf("matrix arena holds %d nodes, %d live + %d free recorded", total, e.mUnique.live, e.mArena.nfree)}
	}
	return nil
}

// AuditV audits only the diagram reachable from v, attaching the
// root-relative edge path of the first failing node (Engine.Audit
// covers all live nodes but cannot name a path). It also verifies every
// reachable node is live in the unique table — a dangling pointer into
// a freed or never-interned node fails here even when its fields happen
// to look plausible.
func (e *Engine) AuditV(v VEdge) error {
	if check, detail := e.auditWeight(v.W); check != "" && v.W != cnum.Zero {
		// Root weights may legitimately exceed magnitude one only for
		// unnormalised intermediate diagrams; state roots seen by the
		// verifier are unit-norm, so keep only the finiteness and
		// canonicality parts here.
		if check != "normalization" {
			return &IntegrityError{Check: check, Path: "root", Detail: detail}
		}
	}
	visited := make(map[*VNode]bool)
	var walk func(n *VNode, path string) *IntegrityError
	walk = func(n *VNode, path string) *IntegrityError {
		if n == vTerminal || visited[n] {
			return nil
		}
		visited[n] = true
		if err := e.auditVNode(n); err != nil {
			err.Path = path
			return err
		}
		if hit, _ := e.vUnique.find(n.hash, n.V, n.E[0], n.E[1]); hit != n {
			return &IntegrityError{Check: "unique-table", NodeID: n.id, Var: n.V, Path: path,
				Detail: "reachable node is not live in the unique table"}
		}
		for i := range n.E {
			if err := walk(n.E[i].N, fmt.Sprintf("%s.%d", path, i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(v.N, "root"); err != nil {
		return err
	}
	return nil
}

// AuditM audits the matrix diagram reachable from m; see AuditV.
func (e *Engine) AuditM(m MEdge) error {
	visited := make(map[*MNode]bool)
	var walk func(n *MNode, path string) *IntegrityError
	walk = func(n *MNode, path string) *IntegrityError {
		if n == mTerminal || visited[n] {
			return nil
		}
		visited[n] = true
		if err := e.auditMNode(n); err != nil {
			err.Path = path
			return err
		}
		if hit, _ := e.mUnique.find(n.hash, n.V, &n.E); hit != n {
			return &IntegrityError{Check: "unique-table", Matrix: true, NodeID: n.id, Var: n.V, Path: path,
				Detail: "reachable node is not live in the unique table"}
		}
		for i := range n.E {
			if err := walk(n.E[i].N, fmt.Sprintf("%s.%d", path, i)); err != nil {
				return err
			}
		}
		return nil
	}
	// Explicit nil check: returning walk's *IntegrityError directly
	// would wrap a nil pointer in a non-nil error interface.
	if err := walk(m.N, "root"); err != nil {
		return err
	}
	return nil
}

// DefaultNormTol is the norm-drift tolerance used by the online state
// monitor. Canonicalisation introduces up to cnum.Tol (1e-12) of
// rounding per weight; over realistic circuit lengths the accumulated
// drift stays well below this bound (after ~400 repetitions of one
// combined Grover iterate at 18 qubits, the marked probability is within
// 1e-11 of the analytic value), while a single flipped mantissa bit in a
// significant weight exceeds it.
const DefaultNormTol = 1e-6

// CheckNorm is the cheap online state monitor: it reports a typed
// *IntegrityError when the state's 2-norm has drifted more than tol
// from one (tol <= 0 selects DefaultNormTol). The drift value is
// returned for trend tracking either way.
func CheckNorm(v VEdge, tol float64) (drift float64, err error) {
	if tol <= 0 {
		tol = DefaultNormTol
	}
	drift = math.Abs(v.Norm() - 1)
	if drift > tol || math.IsNaN(drift) {
		return drift, &IntegrityError{Check: "norm", NodeID: v.N.id, Var: v.N.V,
			Detail: fmt.Sprintf("state norm drifted %.3e from unit (tolerance %.1e)", drift, tol)}
	}
	return drift, nil
}

// CheckUnitary is the trace-based unitarity spot-check for accumulated
// operation matrices: for a unitary M over n qubits, tr(M†M) = 2ⁿ
// exactly, and the trace is computable in DD form without expanding the
// matrix. A corrupted weight or child pointer anywhere in the
// accumulated product shows up as a trace defect. tol is relative to
// 2ⁿ (tol <= 0 selects DefaultNormTol). The check allocates nodes for
// M†M; run it at verification cadence, not per gate.
func (e *Engine) CheckUnitary(m MEdge, tol float64) error {
	if tol <= 0 {
		tol = DefaultNormTol
	}
	if m.N == mTerminal {
		if math.Abs(cnum.Abs2(m.W)-1) > tol {
			return &IntegrityError{Check: "unitarity", Matrix: true,
				Detail: fmt.Sprintf("scalar operation has magnitude %v, want 1", cmplx.Abs(m.W))}
		}
		return nil
	}
	dim := math.Ldexp(1, m.Qubits())
	tr := e.Trace(e.MulMat(e.ConjTranspose(m), m))
	if cmplx.Abs(tr-complex(dim, 0)) > tol*dim {
		return &IntegrityError{Check: "unitarity", Matrix: true, NodeID: m.N.id, Var: m.N.V,
			Detail: fmt.Sprintf("tr(M†M) = %v over %d qubits, want %g", tr, m.Qubits(), dim)}
	}
	return nil
}

// CopyV rebuilds the diagram under v — owned by any engine — inside e,
// re-canonicalising every node and weight through e's unique tables and
// value table. This is the repair primitive: rebuilding a state into a
// fresh engine discards whatever table damage the old engine carried
// while preserving the represented vector exactly.
func (e *Engine) CopyV(v VEdge) VEdge {
	memo := make(map[*VNode]VEdge)
	var rebuild func(n *VNode) VEdge
	rebuild = func(n *VNode) VEdge {
		if n == vTerminal {
			return VOne()
		}
		if r, ok := memo[n]; ok {
			return r
		}
		e0 := e.scaleV(rebuild(n.E[0].N), n.E[0].W)
		e1 := e.scaleV(rebuild(n.E[1].N), n.E[1].W)
		r := e.makeVNode(n.V, e0, e1)
		memo[n] = r
		return r
	}
	if v.N == nil || v.W == cnum.Zero {
		return VZero()
	}
	return e.canonV(e.scaleV(rebuild(v.N), v.W))
}

// CopyM rebuilds a matrix diagram inside e; see CopyV.
func (e *Engine) CopyM(m MEdge) MEdge {
	memo := make(map[*MNode]MEdge)
	var rebuild func(n *MNode) MEdge
	rebuild = func(n *MNode) MEdge {
		if n == mTerminal {
			return MOne()
		}
		if r, ok := memo[n]; ok {
			return r
		}
		var es [4]MEdge
		for i := range n.E {
			es[i] = e.scaleM(rebuild(n.E[i].N), n.E[i].W)
		}
		r := e.makeMNode(n.V, es)
		memo[n] = r
		return r
	}
	if m.N == nil || m.W == cnum.Zero {
		return MZero()
	}
	return e.canonM(e.scaleM(rebuild(m.N), m.W))
}
