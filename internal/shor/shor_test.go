package shor

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/dynamic"
	"repro/internal/mathutil"
)

// runOnBasis densely simulates c on the basis state |input> and asserts
// the result is again a basis state, returning its index.
func runOnBasis(t *testing.T, c *circuit.Circuit, input uint64) uint64 {
	t.Helper()
	s := dense.NewState(c.NQubits)
	for q := 0; q < c.NQubits; q++ {
		if input>>uint(q)&1 == 1 {
			s.Apply([2][2]complex128{{0, 1}, {1, 0}}, q, nil)
		}
	}
	s.Run(c)
	out := uint64(0)
	found := false
	for i, a := range s.Amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 1e-6 {
			if p < 1-1e-6 {
				t.Fatalf("output is not a basis state: |amp[%d]|² = %v", i, p)
			}
			if found {
				t.Fatalf("output has multiple populated basis states")
			}
			out = uint64(i)
			found = true
		}
	}
	if !found {
		t.Fatal("output state has no populated amplitude")
	}
	return out
}

// encode packs register values into a basis index for the layout.
func encode(l Layout, x, b uint64, anc, ctl int) uint64 {
	idx := x // x occupies the low bits
	idx |= b << uint(l.N)
	idx |= uint64(anc) << uint(l.Ancilla())
	idx |= uint64(ctl) << uint(l.Control())
	return idx
}

func TestLayout(t *testing.T) {
	l := NewLayout(4)
	if l.Total() != 11 {
		t.Fatalf("Total = %d, want 11", l.Total())
	}
	if l.X(0) != 0 || l.X(3) != 3 || l.B(0) != 4 || l.B(4) != 8 {
		t.Fatal("register layout wrong")
	}
	if l.Ancilla() != 9 || l.Control() != 10 {
		t.Fatal("ancilla/control layout wrong")
	}
	qs := l.BQubits()
	if len(qs) != 5 || qs[0] != 8 || qs[4] != 4 {
		t.Fatalf("BQubits = %v", qs)
	}
}

func TestPhiAddAddsConstant(t *testing.T) {
	l := NewLayout(3) // 9 qubits, mod 2^4 arithmetic in b
	mod := uint64(16)
	for _, a := range []uint64{0, 1, 5, 7, 15} {
		for b := uint64(0); b < mod; b += 3 {
			c := circuit.New(l.Total())
			appendQFTB(c, l)
			AppendPhiAdd(c, l, a, nil, false)
			appendIQFTB(c, l)
			got := runOnBasis(t, c, encode(l, 0, b, 0, 0))
			want := encode(l, 0, (b+a)%mod, 0, 0)
			if got != want {
				t.Fatalf("φADD(%d) on b=%d: got state %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestPhiAddInverseSubtracts(t *testing.T) {
	l := NewLayout(3)
	mod := uint64(16)
	c := circuit.New(l.Total())
	appendQFTB(c, l)
	AppendPhiAdd(c, l, 5, nil, true)
	appendIQFTB(c, l)
	got := runOnBasis(t, c, encode(l, 0, 3, 0, 0))
	want := encode(l, 0, (3+mod-5)%mod, 0, 0)
	if got != want {
		t.Fatalf("φADD⁻¹(5) on b=3: got %d, want %d", got, want)
	}
}

func TestPhiAddControlled(t *testing.T) {
	l := NewLayout(3)
	controls := []dd.Control{dd.Pos(l.Control()), dd.Pos(l.X(0))}
	build := func() *circuit.Circuit {
		c := circuit.New(l.Total())
		appendQFTB(c, l)
		AppendPhiAdd(c, l, 6, controls, false)
		appendIQFTB(c, l)
		return c
	}
	// Both controls on: adds.
	got := runOnBasis(t, build(), encode(l, 1, 2, 0, 1))
	if got != encode(l, 1, 8, 0, 1) {
		t.Fatalf("controlled φADD active: got %d", got)
	}
	// One control off: identity.
	in := encode(l, 1, 2, 0, 0)
	if got := runOnBasis(t, build(), in); got != in {
		t.Fatalf("controlled φADD inactive: got %d, want %d", got, in)
	}
}

func TestCCPhiAddMod(t *testing.T) {
	l := NewLayout(3)
	modN := uint64(7)
	ctl1, ctl2 := l.Control(), l.X(0)
	for a := uint64(0); a < modN; a++ {
		for b := uint64(0); b < modN; b++ {
			c := circuit.New(l.Total())
			appendQFTB(c, l)
			AppendCCPhiAddMod(c, l, a, modN, ctl1, ctl2, false)
			appendIQFTB(c, l)
			// Active: both controls set (x0 doubles as a control here).
			got := runOnBasis(t, c, encode(l, 1, b, 0, 1))
			want := encode(l, 1, (b+a)%modN, 0, 1)
			if got != want {
				t.Fatalf("φADDMOD(%d) mod %d on b=%d: got %d, want %d", a, modN, b, got, want)
			}
		}
	}
	// Inactive: identity with clean ancilla.
	c := circuit.New(l.Total())
	appendQFTB(c, l)
	AppendCCPhiAddMod(c, l, 5, modN, ctl1, ctl2, false)
	appendIQFTB(c, l)
	in := encode(l, 0, 4, 0, 1) // ctl1 on but ctl2 (x0) off
	if got := runOnBasis(t, c, in); got != in {
		t.Fatalf("inactive φADDMOD: got %d, want %d", got, in)
	}
}

func TestCCPhiAddModInverse(t *testing.T) {
	l := NewLayout(3)
	modN := uint64(7)
	c := circuit.New(l.Total())
	appendQFTB(c, l)
	AppendCCPhiAddMod(c, l, 3, modN, l.Control(), l.X(0), false)
	AppendCCPhiAddMod(c, l, 3, modN, l.Control(), l.X(0), true)
	appendIQFTB(c, l)
	in := encode(l, 1, 5, 0, 1)
	if got := runOnBasis(t, c, in); got != in {
		t.Fatalf("φADDMOD followed by inverse: got %d, want %d", got, in)
	}
}

func TestCMult(t *testing.T) {
	l := NewLayout(3)
	modN := uint64(7)
	for _, a := range []uint64{2, 3, 5} {
		for x := uint64(0); x < modN; x++ {
			for _, b := range []uint64{0, 4} {
				c := circuit.New(l.Total())
				AppendCMult(c, l, a, modN, l.Control(), false)
				got := runOnBasis(t, c, encode(l, x, b, 0, 1))
				want := encode(l, x, (b+a*x)%modN, 0, 1)
				if got != want {
					t.Fatalf("CMULT(%d) x=%d b=%d: got %d, want %d", a, x, b, got, want)
				}
			}
		}
	}
	// Control off: identity.
	c := circuit.New(l.Total())
	AppendCMult(c, l, 3, modN, l.Control(), false)
	in := encode(l, 4, 2, 0, 0)
	if got := runOnBasis(t, c, in); got != in {
		t.Fatalf("inactive CMULT: got %d, want %d", got, in)
	}
}

func TestControlledUa(t *testing.T) {
	modN := uint64(7)
	for _, a := range []uint64{2, 3, 5} {
		c, l, err := ControlledUaCircuit(modN, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		for x := uint64(1); x < modN; x++ {
			got := runOnBasis(t, c, encode(l, x, 0, 0, 1))
			want := encode(l, mathutil.MulMod(a, x, modN), 0, 0, 1)
			if got != want {
				t.Fatalf("cU_%d x=%d: got %d, want %d", a, x, got, want)
			}
		}
		// Control off: identity.
		in := encode(l, 3, 0, 0, 0)
		if got := runOnBasis(t, c, in); got != in {
			t.Fatalf("cU_%d inactive: got %d, want %d", a, got, in)
		}
	}
}

func TestControlledUaRejectsNonCoprime(t *testing.T) {
	if _, _, err := ControlledUaCircuit(15, 6); err == nil {
		t.Fatal("expected error for gcd(6,15) != 1")
	}
}

func TestMultiplyPermutationIsBijection(t *testing.T) {
	f := MultiplyPermutation(4, 7, 15)
	seen := map[uint64]bool{}
	for x := uint64(0); x < 16; x++ {
		y := f(x)
		if seen[y] {
			t.Fatalf("image %d repeated", y)
		}
		seen[y] = true
		if x >= 15 && y != x {
			t.Fatalf("padding state %d not fixed", x)
		}
	}
}

func TestBuildUaDDMatchesPermutation(t *testing.T) {
	eng := dd.New()
	u := BuildUaDD(eng, 4, 7, 15)
	for x := uint64(0); x < 16; x++ {
		out := eng.MulVec(u, eng.BasisState(4, x))
		want := MultiplyPermutation(4, 7, 15)(x)
		amp := out.Amplitude(want)
		if math.Abs(real(amp)-1) > 1e-9 || math.Abs(imag(amp)) > 1e-9 {
			t.Fatalf("U_7 |%d>: amplitude at %d = %v", x, want, amp)
		}
	}
}

func TestPhaseCorrection(t *testing.T) {
	if got := phaseCorrection(nil); got != 0 {
		t.Fatalf("empty correction %v", got)
	}
	// bits = [1] (y_0 = 1), j = 1: θ = -2π/4 = -π/2.
	if got := phaseCorrection([]int{1}); math.Abs(got+math.Pi/2) > 1e-12 {
		t.Fatalf("correction for [1] = %v, want -π/2", got)
	}
	// bits = [1, 0, 1]: θ = -2π(1/16 + 0 + 1/4).
	want := -2 * math.Pi * (1.0/16 + 1.0/4)
	if got := phaseCorrection([]int{1, 0, 1}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("correction for [1,0,1] = %v, want %v", got, want)
	}
}

func TestCheckInstance(t *testing.T) {
	bad := []struct{ n, a uint64 }{
		{2, 1}, {15, 1}, {15, 15}, {15, 6}, {16, 3},
	}
	for _, c := range bad {
		if err := checkInstance(c.n, c.a); err == nil {
			t.Errorf("checkInstance(%d, %d) accepted", c.n, c.a)
		}
	}
	if err := checkInstance(15, 7); err != nil {
		t.Errorf("checkInstance(15, 7): %v", err)
	}
}

func TestSimulateDDConstructFactors15(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	res, err := FactorWithRetries(15, 7, 8, rng, SimulateDDConstruct)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Factored {
		t.Fatalf("failed to factor 15 in 8 attempts (last phase %d, order %d)", res.Phase, res.Order)
	}
	p, q := res.Factors[0], res.Factors[1]
	if p*q != 15 || p == 1 || q == 1 {
		t.Fatalf("factors %d·%d", p, q)
	}
	if res.Qubits != 5 {
		t.Fatalf("DD-construct used %d qubits, want n+1 = 5", res.Qubits)
	}
	if res.MatMatSteps != 0 {
		t.Fatalf("DD-construct should need no matrix-matrix multiplications, got %d", res.MatMatSteps)
	}
}

func TestSimulateDDConstructFactors21(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	res, err := FactorWithRetries(21, 2, 12, rng, SimulateDDConstruct)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Factored {
		t.Fatalf("failed to factor 21 (last phase %d, order %d)", res.Phase, res.Order)
	}
	if res.Factors[0]*res.Factors[1] != 21 {
		t.Fatalf("factors %v", res.Factors)
	}
}

// TestSimulateDDConstructPinnedPhases pins the phases the paper's three
// DD-construct instances measure under seed 42, recorded with the
// earlier AddM-summing permutation builder: the direct builder must
// hand the simulation the same oracles.
func TestSimulateDDConstructPinnedPhases(t *testing.T) {
	for _, c := range []struct{ modN, a, phase uint64 }{
		{1007, 602, 241979},
		{1851, 17, 3458939},
		{2561, 2409, 13724219},
	} {
		res, err := SimulateDDConstruct(c.modN, c.a, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Phase != c.phase {
			t.Errorf("shor_%d_%d: phase %d, want %d", c.modN, c.a, res.Phase, c.phase)
		}
	}
}

// A modulus of 2^24 or more needs oracles wider than FromPermutation
// builds; SimulateDDConstruct must say so instead of panicking.
func TestSimulateDDConstructRejectsOversizedModulus(t *testing.T) {
	res, err := SimulateDDConstruct(1<<24+1, 2, rand.New(rand.NewSource(1)))
	if err == nil || !strings.Contains(err.Error(), "at most 24 qubits") {
		t.Fatalf("N = 2^24+1: got (%v, %v), want the 24-qubit DD-construct limit error", res, err)
	}
}

func TestSimulateGateLevelFactors15(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level Shor is slow in -short mode")
	}
	rng := rand.New(rand.NewSource(3))
	run := func(modN, a uint64, rng *rand.Rand) (*Result, error) {
		return SimulateGateLevel(modN, a, core.Options{Strategy: core.KOperations{K: 8}}, rng)
	}
	res, err := FactorWithRetries(15, 7, 5, rng, run)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Factored {
		t.Fatalf("gate-level run failed to factor 15 (last phase %d)", res.Phase)
	}
	if res.Qubits != 11 {
		t.Fatalf("gate-level used %d qubits, want 2n+3 = 11", res.Qubits)
	}
	if res.MatMatSteps == 0 {
		t.Fatal("k-operations run should perform matrix-matrix multiplications")
	}
}

func TestGateLevelPhaseIsExactForPowerOfTwoOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level Shor is slow in -short mode")
	}
	// Order of 7 mod 15 is 4 = 2², so every measured phase must be an
	// exact multiple of 2^{2n}/4 = 64.
	rng := rand.New(rand.NewSource(11))
	res, err := SimulateGateLevel(15, 7, core.Options{Strategy: core.Sequential{}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phase%64 != 0 {
		t.Fatalf("phase %d is not a multiple of 64", res.Phase)
	}
}

func TestSimulateDynamicFactors15(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level Shor is slow in -short mode")
	}
	rng := rand.New(rand.NewSource(21))
	run := func(modN, a uint64, rng *rand.Rand) (*Result, error) {
		return SimulateDynamic(modN, a, core.Options{Strategy: core.MaxSize{SMax: 64}}, rng)
	}
	res, err := FactorWithRetries(15, 7, 5, rng, run)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Factored {
		t.Fatalf("dynamic-program run failed to factor 15 (last phase %d)", res.Phase)
	}
	if res.Qubits != 11 {
		t.Fatalf("qubits %d, want 11", res.Qubits)
	}
	// The exact order 4 means phases are multiples of 64, as in the
	// hand-rolled loop.
	if res.Phase%64 != 0 {
		t.Fatalf("phase %d not a multiple of 64", res.Phase)
	}
}

func TestDynamicProgramStructure(t *testing.T) {
	prog, err := DynamicProgram(15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if prog.NQubits != 11 || prog.NClbits != 8 {
		t.Fatalf("program dims %d/%d", prog.NQubits, prog.NClbits)
	}
	measures := 0
	conditionals := 0
	for _, op := range prog.Ops {
		switch {
		case op.Kind == dynamic.OpMeasure:
			measures++
		case op.Kind == dynamic.OpGate && op.Cond != nil:
			conditionals++
		}
	}
	if measures != 8 {
		t.Fatalf("measures %d, want 2n = 8", measures)
	}
	// Feedback rotations: Σ_{j=1..7} j = 28, plus 8 conditional resets.
	if conditionals != 28+8 {
		t.Fatalf("conditional gates %d, want 36", conditionals)
	}
	if _, err := DynamicProgram(16, 3); err == nil {
		t.Fatal("even modulus accepted")
	}
}

// The measured phase distribution for an exact power-of-two order must
// be uniform over the multiples k·2^{2n}/r — order finding's textbook
// statistics.
func TestDDConstructPhaseStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	counts := map[uint64]int{}
	const runs = 200
	for i := 0; i < runs; i++ {
		res, err := SimulateDDConstruct(15, 7, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Phase]++
	}
	// Order of 7 mod 15 is 4: phases concentrate on {0, 64, 128, 192}.
	valid := map[uint64]bool{0: true, 64: true, 128: true, 192: true}
	for phase, n := range counts {
		if !valid[phase] {
			t.Fatalf("impossible phase %d measured %d times", phase, n)
		}
	}
	for phase := range valid {
		frac := float64(counts[phase]) / runs
		if math.Abs(frac-0.25) > 0.12 {
			t.Fatalf("phase %d frequency %v, want ~0.25", phase, frac)
		}
	}
}
