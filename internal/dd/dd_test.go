package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/cnum"
)

// --- dense helpers used as the oracle -------------------------------

type mat [][]complex128

func eye(dim int) mat {
	m := make(mat, dim)
	for i := range m {
		m[i] = make([]complex128, dim)
		m[i][i] = 1
	}
	return m
}

func matMul(a, b mat) mat {
	n := len(a)
	r := make(mat, n)
	for i := 0; i < n; i++ {
		r[i] = make([]complex128, n)
		for k := 0; k < n; k++ {
			if a[i][k] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				r[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return r
}

func matVec(a mat, v []complex128) []complex128 {
	r := make([]complex128, len(v))
	for i := range a {
		for j, x := range v {
			r[i] += a[i][j] * x
		}
	}
	return r
}

// denseGate expands a controlled single-qubit gate to a full 2^n matrix.
func denseGate(u [2][2]complex128, n, target int, controls []Control) mat {
	dim := 1 << uint(n)
	m := make(mat, dim)
	for i := range m {
		m[i] = make([]complex128, dim)
	}
	tBit := 1 << uint(target)
	for col := 0; col < dim; col++ {
		active := true
		for _, c := range controls {
			bit := col>>uint(c.Qubit)&1 == 1
			if bit == c.Negative {
				active = false
				break
			}
		}
		if !active {
			m[col][col] = 1
			continue
		}
		cb := col >> uint(target) & 1
		m[col&^tBit][col] += u[0][cb]
		m[col|tBit][col] += u[1][cb]
	}
	return m
}

func approxC(a, b complex128) bool { return cmplx.Abs(a-b) < 1e-9 }

func approxVec(t *testing.T, got, want []complex128, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if !approxC(got[i], want[i]) {
			t.Fatalf("%s: entry %d: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

func approxMat(t *testing.T, got, want mat, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if !approxC(got[i][j], want[i][j]) {
				t.Fatalf("%s: entry (%d,%d): got %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

var (
	gX = [2][2]complex128{{0, 1}, {1, 0}}
	gH = [2][2]complex128{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}
	gZ = [2][2]complex128{{1, 0}, {0, -1}}
	gT = [2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}}
)

func randUnitary(rng *rand.Rand) [2][2]complex128 {
	// Random U(2) via Euler angles and a global phase.
	th, ph, la, al := rng.Float64()*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
	c := complex(math.Cos(th/2), 0)
	s := complex(math.Sin(th/2), 0)
	g := cmplx.Exp(complex(0, al))
	return [2][2]complex128{
		{g * c, -g * cmplx.Exp(complex(0, la)) * s},
		{g * cmplx.Exp(complex(0, ph)) * s, g * cmplx.Exp(complex(0, ph+la)) * c},
	}
}

func randState(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += cnum.Abs2(v[i])
	}
	f := complex(1/math.Sqrt(norm), 0)
	for i := range v {
		v[i] *= f
	}
	return v
}

// --- construction ----------------------------------------------------

func TestBasisState(t *testing.T) {
	e := New()
	for n := 1; n <= 5; n++ {
		for idx := uint64(0); idx < 1<<uint(n); idx++ {
			v := e.BasisState(n, idx)
			for j := uint64(0); j < 1<<uint(n); j++ {
				want := complex128(0)
				if j == idx {
					want = 1
				}
				if got := v.Amplitude(j); !approxC(got, want) {
					t.Fatalf("BasisState(%d,%d): amplitude(%d) = %v, want %v", n, idx, j, got, want)
				}
			}
			if v.Size() != n {
				t.Fatalf("BasisState(%d,%d): size %d, want %d", n, idx, v.Size(), n)
			}
		}
	}
}

func TestBasisStatePanics(t *testing.T) {
	e := New()
	mustPanic(t, func() { e.BasisState(3, 8) })
	mustPanic(t, func() { e.BasisState(-1, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestFromVectorRoundTrip(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 7; n++ {
		want := randState(rng, n)
		v := e.FromVector(want)
		approxVec(t, v.ToVector(), want, "round trip")
		if math.Abs(v.Norm()-1) > 1e-9 {
			t.Fatalf("norm %v, want 1", v.Norm())
		}
	}
}

func TestFromVectorSharing(t *testing.T) {
	// A uniform vector must collapse to one node per level.
	e := New()
	n := 6
	amps := make([]complex128, 1<<uint(n))
	for i := range amps {
		amps[i] = complex(1/math.Sqrt(float64(len(amps))), 0)
	}
	v := e.FromVector(amps)
	if v.Size() != n {
		t.Fatalf("uniform state size = %d, want %d", v.Size(), n)
	}
}

func TestNormalFormInvariants(t *testing.T) {
	// Every node must carry exactly-one as the weight of its
	// largest-magnitude edge, no stored weight may exceed magnitude one
	// (beyond the tie margin), and zero-weight edges must point at the
	// terminal.
	e := New()
	rng := rand.New(rand.NewSource(2))
	v := e.FromVector(randState(rng, 6))
	seen := map[*VNode]bool{}
	var walk func(n *VNode)
	walk = func(n *VNode) {
		if n == vTerminal || seen[n] {
			return
		}
		seen[n] = true
		hasOne := false
		for i := 0; i < 2; i++ {
			w := n.E[i].W
			if w == cnum.One {
				hasOne = true
			}
			if cnum.Abs2(w) > 1+1e-6 {
				t.Fatalf("stored weight %v exceeds magnitude 1", w)
			}
			if w == cnum.Zero && n.E[i].N != vTerminal {
				t.Fatal("zero edge not pointing at terminal")
			}
			walk(n.E[i].N)
		}
		if !hasOne {
			t.Fatalf("node has no exactly-one weight: %v, %v", n.E[0].W, n.E[1].W)
		}
	}
	walk(v.N)
}

func TestIdentity(t *testing.T) {
	e := New()
	for n := 0; n <= 6; n++ {
		id := e.Identity(n)
		if n == 0 {
			if !id.IsTerminal() || id.W != 1 {
				t.Fatal("Identity(0) should be the scalar 1")
			}
			continue
		}
		if id.Size() != n {
			t.Fatalf("Identity(%d) has %d nodes, want %d", n, id.Size(), n)
		}
		approxMat(t, id.ToMatrix(), eye(1<<uint(n)), "identity")
	}
}

// --- gate construction ------------------------------------------------

func TestGateDDAgainstDense(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name     string
		u        [2][2]complex128
		n, tgt   int
		controls []Control
	}{
		{"h0of1", gH, 1, 0, nil},
		{"x1of3", gX, 3, 1, nil},
		{"h2of3", gH, 3, 2, nil},
		{"cx01", gX, 2, 1, []Control{Pos(0)}},
		{"cx10", gX, 2, 0, []Control{Pos(1)}},
		{"cz02of3", gZ, 3, 2, []Control{Pos(0)}},
		{"ccx", gX, 3, 2, []Control{Pos(0), Pos(1)}},
		{"ccx_mixed_order", gX, 3, 0, []Control{Pos(2), Pos(1)}},
		{"negctl", gX, 2, 1, []Control{Neg(0)}},
		{"mixed_polarity", gZ, 4, 1, []Control{Neg(0), Pos(3), Neg(2)}},
		{"t_mid", gT, 4, 2, []Control{Pos(0)}},
	}
	for _, c := range cases {
		got := e.GateDD(c.u, c.n, c.tgt, c.controls).ToMatrix()
		want := denseGate(c.u, c.n, c.tgt, c.controls)
		approxMat(t, got, want, c.name)
	}
	// Randomised sweep.
	for i := 0; i < 50; i++ {
		n := 2 + rng.Intn(4)
		tgt := rng.Intn(n)
		var controls []Control
		for q := 0; q < n; q++ {
			if q != tgt && rng.Intn(3) == 0 {
				controls = append(controls, Control{Qubit: q, Negative: rng.Intn(2) == 0})
			}
		}
		u := randUnitary(rng)
		got := e.GateDD(u, n, tgt, controls).ToMatrix()
		approxMat(t, got, denseGate(u, n, tgt, controls), "random gate")
	}
}

func TestGateDDLinearSize(t *testing.T) {
	// A single-qubit gate on n qubits must be linear in n — the key fact
	// behind the paper's observation that operation DDs are small.
	e := New()
	for n := 1; n <= 20; n++ {
		g := e.GateDD(gH, n, n/2, nil)
		if g.Size() > n {
			t.Fatalf("H gate DD on %d qubits has %d nodes, want <= %d", n, g.Size(), n)
		}
	}
	// Even many-controlled gates stay linear.
	controls := []Control{Pos(0), Pos(1), Neg(2), Pos(3)}
	g := e.GateDD(gX, 20, 10, controls)
	if g.Size() > 3*20 {
		t.Fatalf("MCX DD too large: %d nodes", g.Size())
	}
}

func TestGateDDPanics(t *testing.T) {
	e := New()
	mustPanic(t, func() { e.GateDD(gX, 2, 2, nil) })
	mustPanic(t, func() { e.GateDD(gX, 2, 0, []Control{Pos(0)}) })
	mustPanic(t, func() { e.GateDD(gX, 2, 0, []Control{Pos(5)}) })
	mustPanic(t, func() { e.GateDD(gX, 3, 0, []Control{Pos(1), Neg(1)}) })
}

func TestSwapDD(t *testing.T) {
	e := New()
	for n := 2; n <= 4; n++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				m := e.SwapDD(n, a, b).ToMatrix()
				dim := 1 << uint(n)
				want := make(mat, dim)
				for col := 0; col < dim; col++ {
					want[col] = make([]complex128, dim)
				}
				for col := 0; col < dim; col++ {
					ba := col >> uint(a) & 1
					bb := col >> uint(b) & 1
					row := col&^(1<<uint(a))&^(1<<uint(b)) | bb<<uint(a) | ba<<uint(b)
					want[row][col] = 1
				}
				approxMat(t, m, want, "swap")
			}
		}
	}
}

// --- arithmetic --------------------------------------------------------

func TestAddAgainstDense(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		a := randState(rng, n)
		b := randState(rng, n)
		sum := make([]complex128, len(a))
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		got := e.Add(e.FromVector(a), e.FromVector(b))
		approxVec(t, got.ToVector(), sum, "add")
	}
}

func TestAddCancellation(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(5))
	a := randState(rng, 4)
	va := e.FromVector(a)
	neg := e.ScaleV(va, -1)
	sum := e.Add(va, neg)
	if !sum.IsZero() {
		t.Fatalf("v + (-v) = %v, want zero edge", sum)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(5)
		tgt := rng.Intn(n)
		var controls []Control
		for q := 0; q < n; q++ {
			if q != tgt && rng.Intn(4) == 0 {
				controls = append(controls, Control{Qubit: q, Negative: rng.Intn(2) == 0})
			}
		}
		u := randUnitary(rng)
		vec := randState(rng, n)
		m := e.GateDD(u, n, tgt, controls)
		got := e.MulVec(m, e.FromVector(vec))
		want := matVec(denseGate(u, n, tgt, controls), vec)
		approxVec(t, got.ToVector(), want, "mulvec")
		if math.Abs(got.Norm()-1) > 1e-9 {
			t.Fatalf("unitary broke the norm: %v", got.Norm())
		}
	}
}

// TestWeightStats checks the weight-table counters: every miss stores
// one representative, and a value within tolerance of one is a hit.
func TestWeightStats(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(8))
	e.MulVec(e.GateDD(randUnitary(rng), 4, 1, nil), e.FromVector(randState(rng, 4)))
	hits, misses := e.WeightStats()
	if misses == 0 || misses != uint64(e.WeightTableSize()) {
		t.Fatalf("misses = %d, want the %d stored representatives", misses, e.WeightTableSize())
	}
	w := e.Weight(complex(0.3, -0.4))
	e.Weight(w + complex(cnum.Tol/4, 0))
	if h, m := e.WeightStats(); h != hits+1 || m != misses+1 {
		t.Fatalf("after one new value and one near it: (hits, misses) = (%d, %d), want (%d, %d)", h, m, hits+1, misses+1)
	}
}

func TestMulMatAgainstDense(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4)
		mk := func() (MEdge, mat) {
			tgt := rng.Intn(n)
			var controls []Control
			for q := 0; q < n; q++ {
				if q != tgt && rng.Intn(4) == 0 {
					controls = append(controls, Control{Qubit: q})
				}
			}
			u := randUnitary(rng)
			return e.GateDD(u, n, tgt, controls), denseGate(u, n, tgt, controls)
		}
		a, da := mk()
		b, db := mk()
		got := e.MulMat(a, b).ToMatrix()
		approxMat(t, got, matMul(da, db), "mulmat")
	}
}

// Associativity — the algebraic fact the whole paper rests on:
// (M2 × M1) × v == M2 × (M1 × v).
func TestAssociativityProperty(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		v := e.FromVector(randState(rng, n))
		g1 := e.GateDD(randUnitary(rng), n, rng.Intn(n), nil)
		g2 := e.GateDD(randUnitary(rng), n, rng.Intn(n), nil)
		eq1 := e.MulVec(g2, e.MulVec(g1, v)) // Eq. 1
		eq2 := e.MulVec(e.MulMat(g2, g1), v) // Eq. 2
		if f := e.Fidelity(eq1, eq2); f < 1-1e-9 {
			t.Fatalf("associativity violated: fidelity %v", f)
		}
		approxVec(t, eq2.ToVector(), eq1.ToVector(), "associativity")
	}
}

func TestMulMatIdentity(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(9))
	n := 4
	g := e.GateDD(randUnitary(rng), n, 2, []Control{Pos(0)})
	id := e.Identity(n)
	left := e.MulMat(id, g)
	right := e.MulMat(g, id)
	approxMat(t, left.ToMatrix(), g.ToMatrix(), "id*g")
	approxMat(t, right.ToMatrix(), g.ToMatrix(), "g*id")
	// Hash-consing should make these literally the same diagram.
	if left.N != g.N || right.N != g.N {
		t.Fatal("identity multiplication did not return the canonical node")
	}
}

func TestConjTranspose(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(4)
		g := e.GateDD(randUnitary(rng), n, rng.Intn(n), nil)
		adj := e.ConjTranspose(g)
		prod := e.MulMat(adj, g)
		approxMat(t, prod.ToMatrix(), eye(1<<uint(n)), "U†U")
	}
}

func TestKron(t *testing.T) {
	e := New()
	// |1> ⊗ |0> = |10> (qubit 1 high, qubit 0 low).
	hi := e.BasisState(1, 1)
	lo := e.BasisState(1, 0)
	v := e.KronV(hi, lo)
	approxVec(t, v.ToVector(), []complex128{0, 0, 1, 0}, "kronV")

	// X ⊗ I acts on qubit 1 of two.
	x1 := e.KronM(e.GateDD(gX, 1, 0, nil), e.Identity(1))
	approxMat(t, x1.ToMatrix(), denseGate(gX, 2, 1, nil), "kronM")
}

func TestInnerProduct(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(11))
	n := 5
	a := randState(rng, n)
	b := randState(rng, n)
	var want complex128
	for i := range a {
		want += complex(real(a[i]), -imag(a[i])) * b[i]
	}
	got := e.InnerProduct(e.FromVector(a), e.FromVector(b))
	if !approxC(got, want) {
		t.Fatalf("inner product %v, want %v", got, want)
	}
	if f := e.Fidelity(e.FromVector(a), e.FromVector(a)); math.Abs(f-1) > 1e-9 {
		t.Fatalf("self fidelity %v", f)
	}
}

// --- permutations and diagonals ---------------------------------------

func TestFromPermutation(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 3, 5} {
		size := uint64(1) << uint(n)
		perm := rng.Perm(int(size))
		m := e.FromPermutation(n, func(x uint64) uint64 { return uint64(perm[x]) })
		// Applying to each basis state must yield the permuted basis state.
		for x := uint64(0); x < size; x++ {
			out := e.MulVec(m, e.BasisState(n, x))
			if got := out.Amplitude(uint64(perm[x])); !approxC(got, 1) {
				t.Fatalf("n=%d: perm(%d): amplitude at image = %v, want 1", n, x, got)
			}
		}
		// And it must be unitary.
		prod := e.MulMat(e.ConjTranspose(m), m)
		approxMat(t, prod.ToMatrix(), eye(int(size)), "perm unitarity")
	}
}

func TestFromPermutationRejectsNonBijection(t *testing.T) {
	e := New()
	mustPanic(t, func() { e.FromPermutation(2, func(x uint64) uint64 { return 0 }) })
	mustPanic(t, func() { e.FromPermutation(2, func(x uint64) uint64 { return 7 }) })
}

func TestFromPermutationIdentitySharing(t *testing.T) {
	e := New()
	m := e.FromPermutation(4, func(x uint64) uint64 { return x })
	if m.N != e.Identity(4).N {
		t.Fatal("identity permutation did not hash-cons onto the identity DD")
	}
}

func TestFromDiagonal(t *testing.T) {
	e := New()
	n := 3
	phase := func(x uint64) complex128 {
		if x == 5 {
			return -1
		}
		return 1
	}
	m := e.FromDiagonal(n, phase)
	dm := m.ToMatrix()
	for i := range dm {
		for j := range dm[i] {
			want := complex128(0)
			if i == j {
				want = phase(uint64(i))
			}
			if !approxC(dm[i][j], want) {
				t.Fatalf("diagonal entry (%d,%d) = %v, want %v", i, j, dm[i][j], want)
			}
		}
	}
	// A single flipped sign is exactly a (multi-controlled-Z)-style
	// oracle; check it against GateDD with mixed polarity controls.
	oracle := e.GateDD(gZ, n, 0, []Control{Neg(1), Pos(2)})
	approxMat(t, oracle.ToMatrix(), m.ToMatrix(), "diag vs mcz")
}

func TestControlledOpExtendAbove(t *testing.T) {
	e := New()
	x := e.GateDD(gX, 1, 0, nil)
	cx := e.ControlledOp(x, false)
	approxMat(t, cx.ToMatrix(), denseGate(gX, 2, 0, []Control{Pos(1)}), "controlled op")
	ncx := e.ControlledOp(x, true)
	approxMat(t, ncx.ToMatrix(), denseGate(gX, 2, 0, []Control{Neg(1)}), "neg controlled op")
	ext := e.ExtendAbove(cx, 4)
	approxMat(t, ext.ToMatrix(), denseGate(gX, 4, 0, []Control{Pos(1)}), "extend above")
}

// --- measurement --------------------------------------------------------

func TestProbBellState(t *testing.T) {
	e := New()
	// Bell state via H(0);CX(0,1) on |00>.
	v := e.ZeroState(2)
	v = e.MulVec(e.GateDD(gH, 2, 0, nil), v)
	v = e.MulVec(e.GateDD(gX, 2, 1, []Control{Pos(0)}), v)
	for q := 0; q < 2; q++ {
		if p := v.Prob(q, 1); math.Abs(p-0.5) > 1e-9 {
			t.Fatalf("Bell: P(q%d=1) = %v, want 0.5", q, p)
		}
	}
	// Collapse qubit 0 to 1: qubit 1 must follow.
	post := e.Project(v, 0, 1)
	if p := post.Prob(1, 1); math.Abs(p-1) > 1e-9 {
		t.Fatalf("Bell collapse: P(q1=1) = %v, want 1", p)
	}
	if got := post.Amplitude(3); !approxC(got, 1) {
		t.Fatalf("post-measurement amplitude %v, want 1", got)
	}
}

func TestProbMatchesDenseRandom(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		amps := randState(rng, n)
		v := e.FromVector(amps)
		for q := 0; q < n; q++ {
			var want float64
			for i, a := range amps {
				if i>>uint(q)&1 == 1 {
					want += cnum.Abs2(a)
				}
			}
			if got := v.Prob(q, 1); math.Abs(got-want) > 1e-9 {
				t.Fatalf("Prob(q%d=1) = %v, want %v", q, got, want)
			}
			if got0 := v.Prob(q, 0); math.Abs(got0+v.Prob(q, 1)-1) > 1e-9 {
				t.Fatalf("probabilities do not sum to 1: %v", got0)
			}
		}
	}
}

func TestSampleAllDistribution(t *testing.T) {
	e := New()
	// |+>|0>: outcomes 0 and 1 equally likely, 2/3 never.
	v := e.MulVec(e.GateDD(gH, 2, 0, nil), e.ZeroState(2))
	rng := rand.New(rand.NewSource(14))
	counts := map[uint64]int{}
	const samples = 20000
	for i := 0; i < samples; i++ {
		counts[v.SampleAll(rng)]++
	}
	if counts[2] != 0 || counts[3] != 0 {
		t.Fatalf("impossible outcomes sampled: %v", counts)
	}
	ratio := float64(counts[0]) / samples
	if math.Abs(ratio-0.5) > 0.02 {
		t.Fatalf("outcome 0 frequency %v, want ~0.5", ratio)
	}
}

func TestMeasureQubitCollapse(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(15))
	v := e.MulVec(e.GateDD(gH, 3, 1, nil), e.ZeroState(3))
	bit, post := e.MeasureQubit(v, 1, rng)
	if p := post.Prob(1, bit); math.Abs(p-1) > 1e-9 {
		t.Fatalf("collapsed state P(q1=%d) = %v, want 1", bit, p)
	}
	if math.Abs(post.Norm()-1) > 1e-9 {
		t.Fatalf("post-measurement norm %v", post.Norm())
	}
}

func TestResetQubit(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 10; trial++ {
		v := e.MulVec(e.GateDD(gH, 2, 0, nil), e.ZeroState(2))
		v = e.MulVec(e.GateDD(gT, 2, 0, nil), v)
		_, post := e.ResetQubit(v, 0, rng)
		if p := post.Prob(0, 0); math.Abs(p-1) > 1e-9 {
			t.Fatalf("reset qubit not in |0>: P = %v", p)
		}
	}
}

// --- engine bookkeeping -------------------------------------------------

func TestHashConsing(t *testing.T) {
	e := New()
	a := e.BasisState(4, 5)
	b := e.BasisState(4, 5)
	if a.N != b.N {
		t.Fatal("equal states got distinct nodes")
	}
	g1 := e.GateDD(gH, 4, 2, nil)
	g2 := e.GateDD(gH, 4, 2, nil)
	if g1.N != g2.N {
		t.Fatal("equal gates got distinct nodes")
	}
}

func TestGarbageCollect(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(17))
	keep := e.FromVector(randState(rng, 6))
	for i := 0; i < 50; i++ {
		e.FromVector(randState(rng, 6)) // garbage
	}
	before := e.VNodeCount()
	want := keep.ToVector()
	e.GarbageCollect([]VEdge{keep}, nil)
	after := e.VNodeCount()
	if after >= before {
		t.Fatalf("GC did not shrink the unique table: %d -> %d", before, after)
	}
	if after != keep.Size() {
		t.Fatalf("GC kept %d nodes, root needs %d", after, keep.Size())
	}
	approxVec(t, keep.ToVector(), want, "state after GC")
	// The engine must remain fully functional, including hash-consing
	// onto surviving nodes.
	v2 := e.FromVector(want)
	if v2.N != keep.N {
		t.Fatal("hash-consing broken after GC")
	}
	g := e.GateDD(gH, 6, 3, nil)
	_ = e.MulVec(g, keep)
	if e.Stats().GCs != 1 {
		t.Fatalf("GC counter = %d, want 1", e.Stats().GCs)
	}
}

func TestGarbageCollectKeepsMatrixRoots(t *testing.T) {
	e := New()
	g := e.GateDD(gT, 5, 2, []Control{Pos(0)})
	want := g.ToMatrix()
	for i := 0; i < 20; i++ {
		e.GateDD(randUnitary(rand.New(rand.NewSource(int64(i)))), 5, i%5, nil)
	}
	e.GarbageCollect(nil, []MEdge{g})
	approxMat(t, g.ToMatrix(), want, "matrix after GC")
}

func TestStatsCounters(t *testing.T) {
	e := New()
	v := e.ZeroState(3)
	g := e.GateDD(gH, 3, 0, nil)
	_ = e.MulVec(g, v)
	_ = e.MulMat(g, g)
	s := e.Stats()
	if s.MatVecMuls != 1 || s.MatMatMuls != 1 {
		t.Fatalf("mul counters = (%d,%d), want (1,1)", s.MatVecMuls, s.MatMatMuls)
	}
	e.ResetStats()
	if e.Stats().MatVecMuls != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func TestSizeCounts(t *testing.T) {
	e := New()
	v := e.ZeroState(4)
	if v.Size() != 4 {
		t.Fatalf("|0000> size %d, want 4", v.Size())
	}
	if VZero().Size() != 0 {
		t.Fatal("zero edge should have size 0")
	}
}

// --- randomized full-circuit cross-check --------------------------------

func TestRandomCircuitAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 10; trial++ {
		e := New()
		n := 2 + rng.Intn(5)
		v := e.ZeroState(n)
		vec := make([]complex128, 1<<uint(n))
		vec[0] = 1
		for step := 0; step < 30; step++ {
			tgt := rng.Intn(n)
			var controls []Control
			for q := 0; q < n; q++ {
				if q != tgt && rng.Intn(5) == 0 {
					controls = append(controls, Control{Qubit: q, Negative: rng.Intn(2) == 0})
				}
			}
			u := randUnitary(rng)
			v = e.MulVec(e.GateDD(u, n, tgt, controls), v)
			vec = matVec(denseGate(u, n, tgt, controls), vec)
		}
		approxVec(t, v.ToVector(), vec, "random circuit")
	}
}

func BenchmarkMulVecHadamardLayer(b *testing.B) {
	e := New()
	n := 16
	v := e.ZeroState(n)
	for q := 0; q < n; q++ {
		v = e.MulVec(e.GateDD(gH, n, q, nil), v)
	}
	g := e.GateDD(gT, n, n/2, []Control{Pos(0)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.MulVec(g, v)
	}
}

func BenchmarkMulMatSmallGates(b *testing.B) {
	e := New()
	n := 16
	g1 := e.GateDD(gH, n, 3, nil)
	g2 := e.GateDD(gX, n, 7, []Control{Pos(2)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.MulMat(g1, g2)
	}
}

// BenchmarkGateDD measures a repeated gate: after the first call every
// GateDD is answered by the gate memo. CI requires 0 allocs/op.
func BenchmarkGateDD(b *testing.B) {
	e := New()
	cs := []Control{Pos(3), Neg(17)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.GateDD(gX, 24, 12, cs)
	}
}

// BenchmarkGateDDBuild measures the same gate through the direct
// construction the memo skips: validation plus one makeMNode per level,
// each re-finding its node in the unique table. CI requires 0 allocs/op.
func BenchmarkGateDDBuild(b *testing.B) {
	e := New()
	cs := []Control{Pos(3), Neg(17)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buildUncached(e, gX, 24, 12, cs)
	}
}

func TestEngineSizeMatchesEdgeSize(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 20; i++ {
		v := e.FromVector(randState(rng, 1+rng.Intn(7)))
		if e.SizeV(v) != v.Size() {
			t.Fatalf("SizeV %d != Size %d", e.SizeV(v), v.Size())
		}
		// Repeated queries (fresh epochs) must agree.
		if e.SizeV(v) != v.Size() {
			t.Fatal("second SizeV query differs")
		}
		m := e.GateDD(randUnitary(rng), 5, rng.Intn(5), nil)
		m = e.MulMat(m, e.GateDD(randUnitary(rng), 5, rng.Intn(5), nil))
		if e.SizeM(m) != m.Size() {
			t.Fatalf("SizeM %d != Size %d", e.SizeM(m), m.Size())
		}
	}
	if e.SizeV(VZero()) != 0 || e.SizeM(MZero()) != 0 {
		t.Fatal("zero edges should have size 0")
	}
}
