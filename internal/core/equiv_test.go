package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
)

func TestEquivalentIdenticalCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomCircuit(rng, 4, 30, false)
	res, err := Equivalent(nil, c, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("circuit not equivalent to itself (overlap %v)", res.HSOverlap)
	}
	if cmplx.Abs(res.Phase-1) > 1e-6 {
		t.Fatalf("self-equivalence phase %v, want 1", res.Phase)
	}
}

func TestEquivalentUpToGlobalPhase(t *testing.T) {
	// RZ(θ) and P(θ) differ by the global phase e^{-iθ/2}.
	a := circuit.New(2)
	a.RZ(0.8, 0).CX(0, 1)
	b := circuit.New(2)
	b.P(0.8, 0).CX(0, 1)
	res, err := Equivalent(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("phase-equivalent circuits rejected (overlap %v)", res.HSOverlap)
	}
	want := cmplx.Exp(complex(0, -0.4))
	if cmplx.Abs(res.Phase-want) > 1e-6 {
		t.Fatalf("phase %v, want %v", res.Phase, want)
	}
}

func TestEquivalentRejectsDifferent(t *testing.T) {
	a := circuit.New(3)
	a.H(0).CX(0, 1)
	b := circuit.New(3)
	b.H(0).CX(0, 2)
	res, err := Equivalent(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("different circuits reported equivalent")
	}
	if res.HSOverlap >= 1-1e-6 {
		t.Fatalf("overlap %v too high for distinct circuits", res.HSOverlap)
	}
}

func TestEquivalentGateCommutation(t *testing.T) {
	// Gates on disjoint qubits commute: two orderings are equivalent.
	a := circuit.New(3)
	a.H(0).T(1).CX(1, 2)
	b := circuit.New(3)
	b.T(1).CX(1, 2).H(0)
	res, err := Equivalent(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("commuting reorder rejected (overlap %v)", res.HSOverlap)
	}
}

func TestIsIdentityCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randomCircuit(rng, 4, 24, false)
	c.AppendCircuit(c.Inverse())
	ok, err := IsIdentityCircuit(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("circuit·inverse not recognised as identity")
	}
	c2 := circuit.New(2)
	c2.H(0)
	ok, err = IsIdentityCircuit(nil, c2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("H recognised as identity")
	}
}

func TestEquivalentErrors(t *testing.T) {
	if _, err := Equivalent(nil, nil, circuit.New(2)); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if _, err := Equivalent(nil, circuit.New(2), circuit.New(3)); err == nil {
		t.Fatal("qubit mismatch accepted")
	}
}

func TestTraceOfGateMatrices(t *testing.T) {
	eng := dd.New()
	// tr(I_n) = 2^n.
	for n := 1; n <= 6; n++ {
		tr := eng.Trace(eng.Identity(n))
		if cmplx.Abs(tr-complex(math.Pow(2, float64(n)), 0)) > 1e-9 {
			t.Fatalf("tr(I_%d) = %v", n, tr)
		}
	}
	// tr(X ⊗ I) = 0; tr(T ⊗ I_2) = 4·(1 + e^{iπ/4})/... compute directly.
	x := eng.GateDD([2][2]complex128{{0, 1}, {1, 0}}, 3, 1, nil)
	if tr := eng.Trace(x); cmplx.Abs(tr) > 1e-9 {
		t.Fatalf("tr(X padded) = %v", tr)
	}
	tgate := eng.GateDD([2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}}, 3, 0, nil)
	want := complex(4, 0) * (1 + cmplx.Exp(complex(0, math.Pi/4)))
	if tr := eng.Trace(tgate); cmplx.Abs(tr-want) > 1e-9 {
		t.Fatalf("tr(T padded) = %v, want %v", tr, want)
	}
}

func TestCombineGatesTreeMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eng := dd.New()
	c := randomCircuit(rng, 4, 20, false)
	lin, err := CombineGates(eng, c, 0, c.GateCount())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := CombineGatesTree(eng, c, 0, c.GateCount())
	if err != nil {
		t.Fatal(err)
	}
	// The two folds compute the same unitary; hash-consing should even
	// make the diagrams structurally close, but compare semantically.
	lm := lin.ToMatrix()
	tm := tree.ToMatrix()
	for i := range lm {
		for j := range lm[i] {
			if cmplx.Abs(lm[i][j]-tm[i][j]) > 1e-8 {
				t.Fatalf("entry (%d,%d): %v vs %v", i, j, lm[i][j], tm[i][j])
			}
		}
	}
	if _, err := CombineGatesTree(eng, c, 3, 3); err == nil {
		t.Fatal("empty range accepted")
	}
}
