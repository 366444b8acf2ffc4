package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cnum"
)

// ghzState builds a GHZ-like entangled state exercising several levels.
func ghzState(e *Engine, n int) VEdge {
	v := e.MulVec(e.GateDD(gH, n, n-1, nil), e.ZeroState(n))
	for q := n - 2; q >= 0; q-- {
		v = e.MulVec(e.GateDD(gX, n, q, []Control{Pos(q + 1)}), v)
	}
	return v
}

// TestAuditCleanEngine verifies that a healthy engine passes the full
// audit at every stage of a simulation, including after GC.
func TestAuditCleanEngine(t *testing.T) {
	e := New()
	if err := e.Audit(); err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	v := ghzState(e, 5)
	if err := e.Audit(); err != nil {
		t.Fatalf("after GHZ build: %v", err)
	}
	if err := e.AuditV(v); err != nil {
		t.Fatalf("state audit: %v", err)
	}
	g1 := e.GateDD(gH, 5, 2, nil)
	g2 := e.GateDD(gT, 5, 0, nil)
	prod := e.MulMat(g2, g1)
	if err := e.AuditM(prod); err != nil {
		t.Fatalf("matrix audit: %v", err)
	}
	v = e.MulVec(prod, v)
	e.GarbageCollect([]VEdge{v}, nil)
	if err := e.Audit(); err != nil {
		t.Fatalf("after GC: %v", err)
	}
	if err := e.AuditV(v); err != nil {
		t.Fatalf("state audit after GC: %v", err)
	}
}

// TestAuditDetectsWeightMutation flips a mantissa bit on a live node's
// edge weight directly and checks both the whole-table audit and the
// reachable-state audit report it with a node path.
func TestAuditDetectsWeightMutation(t *testing.T) {
	e := New()
	v := ghzState(e, 4)
	n := v.N // root node of the state diagram
	orig := n.E[0].W
	n.E[0].W = flipWeight(orig)
	defer func() { n.E[0].W = orig }()

	err := e.Audit()
	if err == nil {
		t.Fatal("Audit missed a mutated edge weight")
	}
	ie, ok := err.(*IntegrityError)
	if !ok {
		t.Fatalf("want *IntegrityError, got %T: %v", err, err)
	}
	// A flipped mantissa bit breaks either canonicality or the stored
	// hash, depending on iteration order.
	if ie.Check != "weight-canonical" && ie.Check != "hash" && ie.Check != "normalization" {
		t.Fatalf("unexpected check %q: %v", ie.Check, err)
	}

	verr := e.AuditV(v)
	if verr == nil {
		t.Fatal("AuditV missed a mutated edge weight")
	}
	if vie := verr.(*IntegrityError); vie.Path == "" {
		t.Fatalf("AuditV error carries no path: %v", verr)
	}
}

// TestAuditDetectsChildMutation redirects a child pointer (level skip)
// and checks detection.
func TestAuditDetectsChildMutation(t *testing.T) {
	e := New()
	v := ghzState(e, 4)
	n := v.N
	orig := n.E[0].N
	n.E[0].N = vTerminal // skips from level 3 straight to the terminal
	defer func() { n.E[0].N = orig }()

	err := e.AuditV(v)
	if err == nil {
		t.Fatal("AuditV missed a level-skipping child pointer")
	}
	ie := err.(*IntegrityError)
	if ie.Check != "level" && ie.Check != "hash" {
		t.Fatalf("unexpected check %q: %v", ie.Check, err)
	}
}

// TestAuditDetectsDanglingNode checks that a reachable node absent from
// the unique table (freed or never interned) fails the state audit.
func TestAuditDetectsDanglingNode(t *testing.T) {
	e := New()
	v := ghzState(e, 4)
	// Forge a node that was never interned.
	rogue := &VNode{V: v.N.V - 1, id: 1}
	rogue.E[0] = VEdge{W: cnum.One, N: vTerminal}
	rogue.E[1] = VEdge{W: cnum.Zero, N: vTerminal}
	// Give it internally consistent fields so only the table check fires.
	for rogue.V > 0 {
		child := &VNode{V: rogue.V - 1, id: 1}
		child.E[0] = VEdge{W: cnum.One, N: vTerminal}
		child.E[1] = VEdge{W: cnum.Zero, N: vTerminal}
		rogue.E[0].N = child
		break
	}
	orig := v.N.E[0].N
	v.N.E[0].N = rogue
	defer func() { v.N.E[0].N = orig }()

	err := e.AuditV(v)
	if err == nil {
		t.Fatal("AuditV missed a dangling (never-interned) node")
	}
	if ie := err.(*IntegrityError); ie.Check != "unique-table" && ie.Check != "level" && ie.Check != "hash" {
		t.Fatalf("unexpected check %q: %v", ie.Check, err)
	}
}

// TestAuditDetectsSlotCorruption damages a live node's unique-table
// slot or the arena index the node records, and checks that the
// whole-table audit names the check that sees it. The slot's hash is
// the only stored copy of the key hash, so with it damaged the
// reachable-state audit, which probes under the recomputed hash, no
// longer finds the node either.
func TestAuditDetectsSlotCorruption(t *testing.T) {
	for _, c := range []struct {
		name, check string
		damage      func(e *Engine, n *VNode, s *slot)
	}{
		{"slot hash", "hash", func(e *Engine, n *VNode, s *slot) { s.hash ^= 1 << 31 }},
		{"slot past the arena", "arena", func(e *Engine, n *VNode, s *slot) { s.ref = e.vArena.n + 1 }},
		{"node index", "arena", func(e *Engine, n *VNode, s *slot) { n.idx++ }},
		{"free-listed node index", "arena", func(e *Engine, n *VNode, s *slot) {
			e.GarbageCollect([]VEdge{{W: cnum.One, N: n}}, nil)
			if e.vArena.free == nil {
				t.Fatal("collection freed no vector node")
			}
			e.vArena.free.idx = e.vArena.n
		}},
	} {
		e := New()
		v := ghzState(e, 4)
		s := e.slotOf(v.N)
		if s == nil {
			t.Fatal("root node has no unique-table slot")
		}
		c.damage(e, v.N, s)
		err := e.Audit()
		if err == nil {
			t.Fatalf("%s: Audit missed the damage", c.name)
		}
		if ie := err.(*IntegrityError); ie.Check != c.check {
			t.Fatalf("%s: want the %s check, got %v", c.name, c.check, err)
		}
		if c.check != "hash" {
			continue
		}
		if ie := err.(*IntegrityError); ie.NodeID != v.N.id {
			t.Fatalf("%s: want node %d, got %v", c.name, v.N.id, err)
		}
		verr := e.AuditV(v)
		if verr == nil {
			t.Fatalf("%s: AuditV found the root under a corrupted slot hash", c.name)
		}
		if vie := verr.(*IntegrityError); vie.Check != "unique-table" || vie.Path != "root" {
			t.Fatalf("%s: want the unique-table check at the root, got %v", c.name, verr)
		}
	}
}

// TestAuditMNilOnClean guards the typed-nil pitfall: AuditM on a sound
// matrix must return an interface that compares equal to nil.
func TestAuditMNilOnClean(t *testing.T) {
	e := New()
	m := e.MulMat(e.GateDD(gH, 3, 1, nil), e.GateDD(gX, 3, 0, nil))
	if err := e.AuditM(m); err != nil {
		t.Fatalf("AuditM on sound matrix: %v", err)
	}
}

// TestCheckNorm exercises the online norm monitor on sound and damaged
// states.
func TestCheckNorm(t *testing.T) {
	e := New()
	v := ghzState(e, 4)
	drift, err := CheckNorm(v, 0)
	if err != nil {
		t.Fatalf("unit state flagged: %v", err)
	}
	if drift > 1e-9 {
		t.Fatalf("unit state drift %g", drift)
	}
	scaled := VEdge{W: v.W * complex(1.1, 0), N: v.N}
	if _, err := CheckNorm(scaled, 0); err == nil {
		t.Fatal("scaled state passed the norm check")
	}
	if _, err := CheckNorm(scaled, 0.5); err != nil {
		t.Fatalf("loose tolerance still flagged: %v", err)
	}
}

// TestCheckUnitary verifies the trace-based spot-check accepts gate
// products and rejects a damaged matrix.
func TestCheckUnitary(t *testing.T) {
	e := New()
	m := e.GateDD(gH, 4, 3, nil)
	for _, g := range []MEdge{
		e.GateDD(gT, 4, 1, nil),
		e.GateDD(gX, 4, 0, []Control{Pos(2)}),
		e.GateDD(gH, 4, 2, nil),
	} {
		m = e.MulMat(g, m)
	}
	if err := e.CheckUnitary(m, 0); err != nil {
		t.Fatalf("unitary product flagged: %v", err)
	}
	damaged := MEdge{W: m.W * complex(1.01, 0), N: m.N}
	if err := e.CheckUnitary(damaged, 0); err == nil {
		t.Fatal("scaled (non-unitary) matrix passed")
	}
	// Terminal-only scalar edge.
	if err := e.CheckUnitary(MOne(), 0); err != nil {
		t.Fatalf("identity scalar flagged: %v", err)
	}
	if err := e.CheckUnitary(MEdge{W: complex(0.5, 0), N: mTerminal}, 0); err == nil {
		t.Fatal("contracting scalar passed")
	}
}

// TestBitFlipInjectionDetected corrupts the n-th interned node of a
// small circuit for several n and both corruption kinds, keeps
// computing on the damaged engine, and checks that every corruption is
// caught — by the audit battery, or by a kernel panic on the corrupted
// structure (which the core runner reports as FailurePanic).
func TestBitFlipInjectionDetected(t *testing.T) {
	for _, kind := range []corruption{weightFlip, childSwap} {
		for _, id := range []uint32{1, 3, 7, 12} {
			e := New()
			v := ghzState(e, 4)
			if !e.corruptNode(id, kind) {
				t.Fatalf("%v: no live node %d to corrupt", kind, id)
			}
			panicked := func() (p bool) {
				defer func() {
					if recover() != nil {
						p = true
					}
				}()
				v = e.MulVec(e.GateDD(gT, 4, 1, nil), v)
				for i := 0; i < 4; i++ {
					v = e.MulVec(e.GateDD(gH, 4, i, nil), v)
				}
				return false
			}()
			detected := panicked
			if !detected {
				if err := e.Audit(); err != nil {
					detected = true
				} else if err := e.AuditV(v); err != nil {
					detected = true
				} else if _, err := CheckNorm(v, 0); err != nil {
					detected = true
				}
			}
			if !detected {
				t.Errorf("%v of node %d: corruption undetected by the audit battery", kind, id)
			}
		}
	}
}

// TestHashSignSwapSensitive pins a past blind spot: XOR-then-multiply
// hashing is linear in the top bit, so swapping two edge weights whose
// folded words differ only in the sign bit (+1 and -1) used to leave
// hashMKey unchanged — making the stored-hash audit blind to exactly
// the child-swap corruption the chaos suite injects. The avalanche
// shifts in foldW must keep these distinguishable.
func TestHashSignSwapSensitive(t *testing.T) {
	a := complex(-0.30366806450359335, 0)
	es := [4]MEdge{
		{W: a, N: mTerminal},
		{W: complex(1, 0), N: mTerminal},
		{W: complex(-1, 0), N: mTerminal},
		{W: a, N: mTerminal},
	}
	h1 := hashMKey(0, &es)
	es[1], es[2] = es[2], es[1]
	if h2 := hashMKey(0, &es); h2 == h1 {
		t.Fatalf("hashMKey invariant under sign-swapped edge exchange (h=%08x)", h1)
	}
	e0 := VEdge{W: complex(1, 0), N: vTerminal}
	e1 := VEdge{W: complex(-1, 0), N: vTerminal}
	if hashVKey(0, e0, e1) == hashVKey(0, e1, e0) {
		t.Fatal("hashVKey invariant under sign-swapped edge exchange")
	}
}

// TestFlipWeightChangesValue pins the corruption primitive itself: the
// flip must change the value by a margin the tolerance cannot absorb.
func TestFlipWeightChangesValue(t *testing.T) {
	w := complex(1/math.Sqrt2, 0)
	f := flipWeight(w)
	if f == w {
		t.Fatal("flip is a no-op")
	}
	if d := math.Abs(real(f) - real(w)); d < cnum.Tol {
		t.Fatalf("flip delta %g is inside cnum tolerance", d)
	}
}

// rootCase builds one exported method's result from the operands; it
// returns the edges the method handed out (vector and matrix roots).
type rootCase func(e *Engine, ops *rootOperands) ([]VEdge, []MEdge)

// rootOperands are the small random diagrams the root cases run on:
// two 4-qubit states, two 4-qubit operators, and 2-qubit halves for
// the Kronecker products.
type rootOperands struct {
	v, w     VEdge
	m, k     MEdge
	vHi, vLo VEdge
	mHi, mLo MEdge
}

func newRootOperands(e *Engine, rng *rand.Rand) *rootOperands {
	const n = 4
	op := func(q int) MEdge {
		m := e.Identity(q)
		for i := 0; i < 3; i++ {
			m = e.MulMat(gateFromSeed(e, rng.Int63(), q), m)
		}
		return m
	}
	return &rootOperands{
		v: e.FromVector(randState(rng, n)), w: e.FromVector(randState(rng, n)),
		m: op(n), k: op(n),
		vHi: e.FromVector(randState(rng, 2)), vLo: e.FromVector(randState(rng, 2)),
		mHi: op(2), mLo: op(2),
	}
}

func (o *rootOperands) roots() ([]VEdge, []MEdge) {
	return []VEdge{o.v, o.w, o.vHi, o.vLo}, []MEdge{o.m, o.k, o.mHi, o.mLo}
}

// rootCases has one entry per exported Engine method that returns an
// edge, keyed by method name. The kernels carry top weights raw, so
// each of these must intern its root before handing it out.
var rootCases = map[string]rootCase{
	"Add": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		a := e.ScaleV(o.v, complex(0.3, -0.7))
		return []VEdge{e.Add(a, o.w), e.Add(o.v, e.ScaleV(o.v, -0.5)), e.Add(VZero(), a)}, nil
	},
	"AddM": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		a := e.ScaleM(o.m, complex(-1.3, 0.2))
		return nil, []MEdge{e.AddM(a, o.k), e.AddM(o.m, e.ScaleM(o.m, 2)), e.AddM(a, MZero())}
	},
	"MulVec": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return []VEdge{e.MulVec(e.ScaleM(o.m, 1.7), o.v), e.MulVec(e.Identity(4), o.w)}, nil
	},
	"MulMat": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.MulMat(o.m, e.ScaleM(o.k, complex(0, 0.9))), e.MulMat(e.Identity(4), o.k)}
	},
	"ScaleV": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return []VEdge{e.ScaleV(o.v, complex(0.123456789, 0.987654321)), e.ScaleV(o.w, 1e-13)}, nil
	},
	"ScaleM": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.ScaleM(o.m, complex(-0.31, 2.5))}
	},
	"KronV": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return []VEdge{e.KronV(e.ScaleV(o.vHi, 3), o.vLo)}, nil
	},
	"KronM": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.KronM(o.mHi, e.ScaleM(o.mLo, complex(0.5, 0.5)))}
	},
	"ConjTranspose": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.ConjTranspose(e.ScaleM(o.m, complex(0.2, -1.1)))}
	},
	"Normalize": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return []VEdge{e.Normalize(e.Add(o.v, o.w))}, nil
	},
	"Project": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return []VEdge{e.Project(o.v, 2, 1)}, nil
	},
	"MeasureQubit": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		_, v := e.MeasureQubit(o.w, 1, rand.New(rand.NewSource(3)))
		return []VEdge{v}, nil
	},
	"ResetQubit": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		_, v := e.ResetQubit(o.v, 0, rand.New(rand.NewSource(5)))
		return []VEdge{v}, nil
	},
	"Approximate": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		r, err := e.Approximate(o.v, 5)
		if err != nil {
			panic(err)
		}
		return []VEdge{r.State}, nil
	},
	"SwapAdjacentV": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return []VEdge{e.SwapAdjacentV(o.v, 1)}, nil
	},
	"SwapAdjacentM": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.SwapAdjacentM(o.m, 2)}
	},
	"SiftV": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		v, _ := e.SiftV(o.w, IdentityOrder(4), 0)
		return []VEdge{v}, nil
	},
	"ZeroState": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return []VEdge{e.ZeroState(4)}, nil
	},
	"BasisState": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return []VEdge{e.BasisState(4, 9)}, nil
	},
	"FromVector": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return []VEdge{e.FromVector([]complex128{0, 0.6i, 0, -0.8})}, nil
	},
	"Identity": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.Identity(4)}
	},
	"GateDD": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		u := [2][2]complex128{{0.6, 0.8i}, {0.8i, 0.6}}
		return nil, []MEdge{e.GateDD(u, 4, 1, []Control{Neg(3)}), e.GateDD(u, 4, 1, []Control{Neg(3)})}
	},
	"SwapDD": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.SwapDD(4, 0, 3)}
	},
	"FromPermutation": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.FromPermutation(4, func(x uint64) uint64 { return (7 * x) % 16 })}
	},
	"RefFromPermutation": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.RefFromPermutation(3, func(x uint64) uint64 { return x ^ 5 })}
	},
	"FromDiagonal": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.FromDiagonal(3, func(x uint64) complex128 {
			return cmplx.Exp(complex(0, 0.4*float64(x)))
		})}
	},
	"ControlledOp": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.ControlledOp(o.mHi, false), e.ControlledOp(e.ScaleM(o.mLo, 0.25), true)}
	},
	"ExtendAbove": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.ExtendAbove(e.ScaleM(o.mHi, complex(0, -2)), 4)}
	},
	"ObservableDD": func(e *Engine, o *rootOperands) ([]VEdge, []MEdge) {
		return nil, []MEdge{e.ObservableDD("XYZI")}
	},
}

// returnsEdge reports whether t is, or directly holds, a VEdge or MEdge.
func returnsEdge(t reflect.Type) bool {
	vt, mt := reflect.TypeOf(VEdge{}), reflect.TypeOf(MEdge{})
	if t == vt || t == mt {
		return true
	}
	if t.Kind() == reflect.Struct {
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i).Type; f == vt || f == mt {
				return true
			}
		}
	}
	return false
}

// TestAuditExportedRootsCanonical runs every exported Engine method
// that returns an edge on small random operands, on a fresh engine and
// again after a GC, and checks that each root weight is a canonical
// representative and each result diagram audits clean.
func TestAuditExportedRootsCanonical(t *testing.T) {
	et := reflect.TypeOf(&Engine{})
	for i := 0; i < et.NumMethod(); i++ {
		m := et.Method(i)
		for j := 0; j < m.Type.NumOut(); j++ {
			if returnsEdge(m.Type.Out(j)) && rootCases[m.Name] == nil {
				t.Errorf("Engine.%s returns an edge but has no root case", m.Name)
			}
		}
	}
	names := make([]string, 0, len(rootCases))
	for name := range rootCases {
		names = append(names, name)
	}
	sort.Strings(names)
	e := New()
	ops := newRootOperands(e, rand.New(rand.NewSource(11)))
	check := func(phase string) {
		for _, name := range names {
			vs, ms := rootCases[name](e, ops)
			for k, v := range vs {
				if !e.weights.Canonical(v.W) {
					t.Errorf("%s/%s: vector root %d weight %v is not canonical", phase, name, k, v.W)
				}
				if err := e.AuditV(v); err != nil {
					t.Errorf("%s/%s: vector root %d: %v", phase, name, k, err)
				}
			}
			for k, m := range ms {
				if !e.weights.Canonical(m.W) {
					t.Errorf("%s/%s: matrix root %d weight %v is not canonical", phase, name, k, m.W)
				}
				if err := e.AuditM(m); err != nil {
					t.Errorf("%s/%s: matrix root %d: %v", phase, name, k, err)
				}
			}
		}
		if err := e.Audit(); err != nil {
			t.Errorf("%s: engine audit: %v", phase, err)
		}
	}
	check("fresh")
	e.GarbageCollect(ops.roots())
	check("after GC")
}
