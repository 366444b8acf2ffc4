package dd

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/cnum"
)

// addCase is one pair of operand weights for the operand-order tests.
// The operands are wa·x and wb·y for two fixed diagrams x and y.
type addCase struct {
	name   string
	wa, wb complex128
	near   bool // y differs from x by ~1e-7, so wb = −wa nearly cancels
	keepA  bool // |wb/wa| < cnum.Tol: the sum is a·x itself
}

var addCases = []addCase{
	{name: "equal magnitude, different phase", wa: 0.6 + 0.8i, wb: 0.8 + 0.6i},
	{name: "bit-equal weights", wa: 0.3 - 0.4i, wb: 0.3 - 0.4i},
	{name: "near cancellation", wa: 0.5 + 0.5i, wb: -(0.5 + 0.5i), near: true},
	{name: "ratio below Tol", wa: 1000, wb: 5e-10, keepA: true},
}

const addTestQubits = 5

// addOperandsV builds x then y, or y then x when yFirst is set, and
// returns wa·x and wb·y.
func addOperandsV(e *Engine, c addCase, yFirst bool) (a, b VEdge) {
	x := func() *VNode { return stateFromSeed(e, 1, addTestQubits).N }
	y := func() *VNode {
		if !c.near {
			return stateFromSeed(e, 2, addTestQubits).N
		}
		v := randState(rand.New(rand.NewSource(1)), addTestQubits)
		v[3] += 1e-7
		return e.FromVector(v).N
	}
	var xn, yn *VNode
	if yFirst {
		yn = y()
		xn = x()
	} else {
		xn = x()
		yn = y()
	}
	return VEdge{W: e.weights.Lookup(c.wa), N: xn}, VEdge{W: e.weights.Lookup(c.wb), N: yn}
}

// addOperandsM is addOperandsV for matrices: x and y are products of
// two seeded single-qubit gates.
func addOperandsM(e *Engine, c addCase, yFirst bool) (a, b MEdge) {
	prod := func(seed int64, eps float64) *MNode {
		rng := rand.New(rand.NewSource(seed))
		g := e.GateDD(randUnitary(rng), addTestQubits, rng.Intn(addTestQubits), nil)
		u := randUnitary(rng)
		u[0][0] += complex(eps, 0)
		return e.MulMat(g, e.GateDD(u, addTestQubits, rng.Intn(addTestQubits), nil)).N
	}
	x := func() *MNode { return prod(1, 0) }
	y := func() *MNode {
		if c.near {
			return prod(1, 1e-7)
		}
		return prod(2, 0)
	}
	var xn, yn *MNode
	if yFirst {
		yn = y()
		xn = x()
	} else {
		xn = x()
		yn = y()
	}
	return MEdge{W: e.weights.Lookup(c.wa), N: xn}, MEdge{W: e.weights.Lookup(c.wb), N: yn}
}

// TestAddOperandOrderAndGC checks that a vector sum depends neither on
// the operand order nor on node ids. Swapped operands must return the
// same node and the same weight bits, and operands rebuilt after a GC
// (fresh ids, allocated in the opposite order), or on a fresh engine,
// must sum to bit-identical amplitudes. addV factors out one operand's
// weight, and a·(x + (b/a)·y) is not symmetric in floating point, so
// the factored operand must be chosen from the weights alone.
func TestAddOperandOrderAndGC(t *testing.T) {
	for _, c := range addCases {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			a, b := addOperandsV(e, c, false)
			s := e.Add(a, b)
			if c.keepA && (s.N != a.N || !sameBits(s.W, a.W)) {
				t.Fatalf("Add = %v·%p, want a = %v·%p", s.W, s.N, a.W, a.N)
			}
			want := VEdge{W: 1, N: a.N}.ToVector()
			yv := VEdge{W: 1, N: b.N}.ToVector()
			got := s.ToVector()
			for i := range want {
				if d := got[i] - (c.wa*want[i] + c.wb*yv[i]); cmplx.Abs(d) > 1e-9 {
					t.Fatalf("amplitude %d: got %v, off by %v", i, got[i], d)
				}
			}
			// Collect with the operands live: ids stay, caches clear, so
			// the swapped sum recomputes instead of hitting the cache.
			e.GarbageCollect([]VEdge{a, b, s}, nil)
			if r := e.Add(b, a); r.N != s.N || !sameBits(r.W, s.W) {
				t.Fatalf("Add(b, a) = %v·%p, Add(a, b) = %v·%p", r.W, r.N, s.W, s.N)
			}
			oldX, oldY := a.N.id, b.N.id
			e.GarbageCollect(nil, nil)
			a2, b2 := addOperandsV(e, c, true)
			if a2.N.id == oldX || b2.N.id == oldY || (a2.N.id < b2.N.id) == (oldX < oldY) {
				t.Fatalf("rebuild kept the id order: x %d→%d, y %d→%d", oldX, a2.N.id, oldY, b2.N.id)
			}
			for i, v := range e.Add(a2, b2).ToVector() {
				if !sameBits(v, got[i]) {
					t.Fatalf("after GC, amplitude %d = %v, was %v", i, v, got[i])
				}
			}
			// A fresh engine interns the sum's raw values anew, so any
			// rounding that depends on the operand order shows in the bits.
			e2 := New()
			a3, b3 := addOperandsV(e2, c, true)
			for i, v := range e2.Add(a3, b3).ToVector() {
				if !sameBits(v, got[i]) {
					t.Fatalf("fresh engine, reversed build: amplitude %d = %v, was %v", i, v, got[i])
				}
			}
		})
	}
}

// TestAddMOperandOrderAndGC is TestAddOperandOrderAndGC for AddM.
func TestAddMOperandOrderAndGC(t *testing.T) {
	for _, c := range addCases {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			a, b := addOperandsM(e, c, false)
			s := e.AddM(a, b)
			if c.keepA && (s.N != a.N || !sameBits(s.W, a.W)) {
				t.Fatalf("AddM = %v·%p, want a = %v·%p", s.W, s.N, a.W, a.N)
			}
			xm := MEdge{W: 1, N: a.N}.ToMatrix()
			ym := MEdge{W: 1, N: b.N}.ToMatrix()
			got := s.ToMatrix()
			for i := range xm {
				for j := range xm[i] {
					if d := got[i][j] - (c.wa*xm[i][j] + c.wb*ym[i][j]); cmplx.Abs(d) > 1e-9 {
						t.Fatalf("entry (%d,%d): got %v, off by %v", i, j, got[i][j], d)
					}
				}
			}
			e.GarbageCollect(nil, []MEdge{a, b, s})
			if r := e.AddM(b, a); r.N != s.N || !sameBits(r.W, s.W) {
				t.Fatalf("AddM(b, a) = %v·%p, AddM(a, b) = %v·%p", r.W, r.N, s.W, s.N)
			}
			oldX, oldY := a.N.id, b.N.id
			e.GarbageCollect(nil, nil)
			a2, b2 := addOperandsM(e, c, true)
			if a2.N.id == oldX || b2.N.id == oldY || (a2.N.id < b2.N.id) == (oldX < oldY) {
				t.Fatalf("rebuild kept the id order: x %d→%d, y %d→%d", oldX, a2.N.id, oldY, b2.N.id)
			}
			for i, row := range e.AddM(a2, b2).ToMatrix() {
				for j, v := range row {
					if !sameBits(v, got[i][j]) {
						t.Fatalf("after GC, entry (%d,%d) = %v, was %v", i, j, v, got[i][j])
					}
				}
			}
			e2 := New()
			a3, b3 := addOperandsM(e2, c, true)
			for i, row := range e2.AddM(a3, b3).ToMatrix() {
				for j, v := range row {
					if !sameBits(v, got[i][j]) {
						t.Fatalf("fresh engine, reversed build: entry (%d,%d) = %v, was %v", i, j, v, got[i][j])
					}
				}
			}
		})
	}
}

// TestAddCacheMatchesRatioWithinTol checks the add caches' tolerance
// match. The ratio q = b/a stays raw and the caches index its
// quantisation cell, so x + q'·y, with q' in q's cell and within Tol of
// q but not bit-equal, must hit the entry x + q·y left and return the
// identical node. A ratio within Tol of zero must return the first
// operand without consulting the cache.
func TestAddCacheMatchesRatioWithinTol(t *testing.T) {
	const q = 0.3 + 0.4i
	q2 := q + complex(3e-13, -2e-13)
	if q2 == q || !cnum.Eq(q, q2) || cnum.KeyOf(q) != cnum.KeyOf(q2) {
		t.Fatalf("q' = %v must be a different value in q's cell within Tol", q2)
	}
	c := addCase{wa: 1, wb: q}
	t.Run("vector", func(t *testing.T) {
		e := New()
		a, b := addOperandsV(e, c, false)
		s := e.Add(a, b)
		before := e.Stats().AddV
		r := e.Add(a, VEdge{W: q2, N: b.N})
		if after := e.Stats().AddV; after.Lookups != before.Lookups+1 || after.Hits != before.Hits+1 {
			t.Fatalf("add-v lookups %d→%d, hits %d→%d; want one lookup, one hit",
				before.Lookups, after.Lookups, before.Hits, after.Hits)
		}
		if r.N != s.N || !sameBits(r.W, s.W) {
			t.Fatalf("x + q'·y = %v·%p, x + q·y = %v·%p", r.W, r.N, s.W, s.N)
		}
		before = e.Stats().AddV
		big := VEdge{W: 1000, N: a.N}
		if z := e.Add(big, VEdge{W: 5e-10, N: b.N}); z.N != big.N || !sameBits(z.W, big.W) {
			t.Fatalf("ratio within Tol of zero: Add = %v·%p, want %v·%p", z.W, z.N, big.W, big.N)
		}
		if after := e.Stats().AddV; after != before {
			t.Fatalf("ratio within Tol of zero consulted the add-v cache: %+v → %+v", before, after)
		}
	})
	t.Run("matrix", func(t *testing.T) {
		e := New()
		a, b := addOperandsM(e, c, false)
		s := e.AddM(a, b)
		before := e.Stats().AddM
		r := e.AddM(a, MEdge{W: q2, N: b.N})
		if after := e.Stats().AddM; after.Lookups != before.Lookups+1 || after.Hits != before.Hits+1 {
			t.Fatalf("add-m lookups %d→%d, hits %d→%d; want one lookup, one hit",
				before.Lookups, after.Lookups, before.Hits, after.Hits)
		}
		if r.N != s.N || !sameBits(r.W, s.W) {
			t.Fatalf("x + q'·y = %v·%p, x + q·y = %v·%p", r.W, r.N, s.W, s.N)
		}
		before = e.Stats().AddM
		big := MEdge{W: 1000, N: a.N}
		if z := e.AddM(big, MEdge{W: 5e-10, N: b.N}); z.N != big.N || !sameBits(z.W, big.W) {
			t.Fatalf("ratio within Tol of zero: AddM = %v·%p, want %v·%p", z.W, z.N, big.W, big.N)
		}
		if after := e.Stats().AddM; after != before {
			t.Fatalf("ratio within Tol of zero consulted the add-m cache: %+v → %+v", before, after)
		}
	})
}
