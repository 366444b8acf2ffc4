package dd

import (
	"math"
	"math/rand"
	"testing"
)

func TestParsePauliString(t *testing.T) {
	if _, err := ParsePauliString("ZIX", 3); err != nil {
		t.Fatal(err)
	}
	if p, err := ParsePauliString("zix", 3); err != nil || p != "ZIX" {
		t.Fatalf("lower-case parse: %v %v", p, err)
	}
	if _, err := ParsePauliString("ZZ", 3); err == nil {
		t.Fatal("wrong length accepted")
	}
	if _, err := ParsePauliString("ZQX", 3); err == nil {
		t.Fatal("bad letter accepted")
	}
}

func TestExpectationComputationalStates(t *testing.T) {
	e := New()
	// <0|Z|0> = 1, <1|Z|1> = -1, <0|X|0> = 0.
	v0 := e.ZeroState(1)
	v1 := e.BasisState(1, 1)
	cases := []struct {
		v    VEdge
		p    PauliString
		want float64
	}{
		{v0, "Z", 1}, {v1, "Z", -1}, {v0, "X", 0}, {v1, "X", 0},
		{v0, "I", 1}, {v0, "Y", 0},
	}
	for _, c := range cases {
		got, err := e.Expectation(c.v, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("<%s> = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestExpectationBellCorrelations(t *testing.T) {
	e := New()
	bell := e.MulVec(e.GateDD(gX, 2, 1, []Control{Pos(0)}),
		e.MulVec(e.GateDD(gH, 2, 0, nil), e.ZeroState(2)))
	// The Bell state has <ZZ> = <XX> = 1, <ZI> = <IZ> = 0, <YY> = -1.
	cases := map[PauliString]float64{
		"ZZ": 1, "XX": 1, "YY": -1, "ZI": 0, "IZ": 0, "XI": 0,
	}
	for p, want := range cases {
		got, err := e.Expectation(bell, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Bell <%s> = %v, want %v", p, got, want)
		}
	}
}

func TestExpectationPlusState(t *testing.T) {
	e := New()
	plus := e.MulVec(e.GateDD(gH, 1, 0, nil), e.ZeroState(1))
	got, err := e.Expectation(plus, "X")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("<+|X|+> = %v, want 1", got)
	}
}

func TestExpectationErrors(t *testing.T) {
	e := New()
	v := e.ZeroState(2)
	if _, err := e.Expectation(v, "Z"); err == nil {
		t.Fatal("span mismatch accepted")
	}
	if _, err := e.Expectation(v, "ZQ"); err == nil {
		t.Fatal("bad letter accepted")
	}
}

func TestObservableDDIsHermitianAndUnitary(t *testing.T) {
	e := New()
	for _, p := range []PauliString{"X", "ZY", "XIZ", "YYXI"} {
		m := e.ObservableDD(p)
		adj := e.ConjTranspose(m)
		if adj.N != m.N || !approxC(adj.W, m.W) {
			t.Fatalf("%s not Hermitian", p)
		}
		sq := e.MulMat(m, m)
		if sq.N != e.Identity(len(p)).N || !approxC(sq.W, 1) {
			t.Fatalf("%s² != I", p)
		}
	}
}

func TestLinearXEB(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	// A random 8-qubit state sampled from its own distribution has
	// XEB ≈ 2^n Σ p² − 1 > 0; uniform random bitstrings give ≈ 0.
	v := e.FromVector(randState(rng, 8))
	var ideal, uniform []uint64
	sampler := v.Sampler()
	for i := 0; i < 4000; i++ {
		ideal = append(ideal, sampler.Draw(rng))
		uniform = append(uniform, uint64(rng.Intn(256)))
	}
	xebIdeal := LinearXEB(v, ideal)
	xebUniform := LinearXEB(v, uniform)
	if xebIdeal < 0.5 {
		t.Fatalf("XEB of ideal samples %v, want clearly positive", xebIdeal)
	}
	if math.Abs(xebUniform) > 0.3 {
		t.Fatalf("XEB of uniform samples %v, want near 0", xebUniform)
	}
	if LinearXEB(v, nil) != 0 {
		t.Fatal("empty sample XEB should be 0")
	}
}

// For a Porter-Thomas-like random state the expected ideal-sampling XEB
// approaches 1; for a computational basis state sampling itself it is
// 2^n − 1.
func TestLinearXEBBasisState(t *testing.T) {
	e := New()
	v := e.BasisState(4, 9)
	samples := []uint64{9, 9, 9}
	if got := LinearXEB(v, samples); math.Abs(got-15) > 1e-9 {
		t.Fatalf("basis-state XEB = %v, want 15", got)
	}
}
