package grover

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cnum"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
)

func TestIterations(t *testing.T) {
	cases := []struct{ n, want int }{
		{2, 1}, {4, 3}, {6, 6}, {8, 12}, {10, 25},
	}
	for _, c := range cases {
		if got := Iterations(c.n); got != c.want {
			t.Errorf("Iterations(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSuccessProbabilityHigh(t *testing.T) {
	for n := 3; n <= 12; n++ {
		p := SuccessProbability(n, Iterations(n))
		if p < 0.9 {
			t.Errorf("optimal success probability for n=%d is %v, want > 0.9", n, p)
		}
	}
}

func TestCircuitStructure(t *testing.T) {
	n := 5
	c := Circuit(n, 13, 0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Blocks) != 1 {
		t.Fatalf("blocks %d, want 1", len(c.Blocks))
	}
	b := c.Blocks[0]
	if b.Name != "grover-iter" || b.Repeat != Iterations(n) {
		t.Fatalf("block %+v", b)
	}
	if b.Start != n {
		t.Fatalf("block should start after the %d initial Hadamards, got %d", n, b.Start)
	}
}

func TestCircuitPanics(t *testing.T) {
	mustPanic(t, func() { Circuit(1, 0, 0) })
	mustPanic(t, func() { Circuit(3, 8, 0) })
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

func TestGroverFindsMarkedElement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, 4, 6, 8} {
		marked := uint64(rng.Intn(1 << uint(n)))
		c := Circuit(n, marked, 0)
		res, err := core.Run(c, core.Options{Strategy: core.Sequential{}})
		if err != nil {
			t.Fatal(err)
		}
		probs := res.State.Probabilities()
		want := SuccessProbability(n, Iterations(n))
		if math.Abs(probs[marked]-want) > 1e-6 {
			t.Fatalf("n=%d marked=%d: P = %v, want %v", n, marked, probs[marked], want)
		}
		// All unmarked elements share the residual probability equally.
		other := (1 - probs[marked]) / float64((uint64(1)<<uint(n))-1)
		for i, p := range probs {
			if uint64(i) == marked {
				continue
			}
			if math.Abs(p-other) > 1e-9 {
				t.Fatalf("n=%d: unmarked %d has P = %v, want %v", n, i, p, other)
			}
		}
	}
}

func TestGroverMarkedZeroAndMax(t *testing.T) {
	// Edge markings exercise the X-conjugated oracle and all-negative
	// controls.
	for _, marked := range []uint64{0, 15} {
		c := Circuit(4, marked, 0)
		res, err := core.Run(c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		probs := res.State.Probabilities()
		if probs[marked] < 0.9 {
			t.Fatalf("marked=%d: P = %v", marked, probs[marked])
		}
	}
}

func TestStrategiesAgreeOnGrover(t *testing.T) {
	c := Circuit(6, 42, 0)
	ref := dense.Simulate(c)
	for _, opt := range []core.Options{
		{Strategy: core.Sequential{}},
		{Strategy: core.KOperations{K: 8}},
		{Strategy: core.MaxSize{SMax: 128}},
		{Strategy: core.Sequential{}, UseBlocks: true},
		{Strategy: core.KOperations{K: 4}, UseBlocks: true},
	} {
		res, err := core.Run(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		vec := res.State.ToVector()
		for i := range vec {
			d := vec[i] - ref.Amps[i]
			if math.Abs(real(d)) > 1e-7 || math.Abs(imag(d)) > 1e-7 {
				t.Fatalf("%s: amplitude %d differs: %v vs %v", opt.Strategy.Name(), i, vec[i], ref.Amps[i])
			}
		}
	}
}

func TestDDRepeatingReducesMultiplications(t *testing.T) {
	c := Circuit(8, 100, 0)
	plain, err := core.Run(c, core.Options{Strategy: core.Sequential{}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(c, core.Options{Strategy: core.Sequential{}, UseBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatVecSteps >= plain.MatVecSteps {
		t.Fatalf("DD-repeating did not reduce matvec steps: %d vs %d", rep.MatVecSteps, plain.MatVecSteps)
	}
	// One iteration body combined once: matmat steps = bodyGates-1.
	body := c.Blocks[0].End - c.Blocks[0].Start
	if rep.MatMatSteps != body-1 {
		t.Fatalf("matmat steps %d, want %d", rep.MatMatSteps, body-1)
	}
}

func TestOracleDDMatchesGateOracle(t *testing.T) {
	eng := dd.New()
	n := 4
	marked := uint64(9)
	oracle := OracleDD(eng, n, marked)
	m := oracle.ToMatrix()
	for i := range m {
		for j := range m[i] {
			want := complex128(0)
			if i == j {
				want = 1
				if uint64(i) == marked {
					want = -1
				}
			}
			if d := m[i][j] - want; math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
				t.Fatalf("oracle entry (%d,%d) = %v, want %v", i, j, m[i][j], want)
			}
		}
	}
}

func TestIterationDDMatchesGateIteration(t *testing.T) {
	eng := dd.New()
	n := 4
	marked := uint64(6)
	direct := IterationDD(eng, n, marked)

	// Gate-level iteration from the circuit block.
	c := Circuit(n, marked, 1)
	b := c.Blocks[0]
	gateMat, err := core.CombineGates(eng, c, b.Start, b.End)
	if err != nil {
		t.Fatal(err)
	}
	dm := direct.ToMatrix()
	gm := gateMat.ToMatrix()
	// The two constructions may differ by a global phase (the gate-level
	// diffusion flips the sign); align on the largest entry.
	var ref complex128
	for i := range dm {
		for j := range dm[i] {
			if ref == 0 && math.Abs(real(gm[i][j]))+math.Abs(imag(gm[i][j])) > 1e-6 {
				ref = dm[i][j] / gm[i][j]
			}
		}
	}
	for i := range dm {
		for j := range dm[i] {
			d := dm[i][j] - ref*gm[i][j]
			if math.Abs(real(d)) > 1e-8 || math.Abs(imag(d)) > 1e-8 {
				t.Fatalf("iteration entry (%d,%d): %v vs %v (phase %v)", i, j, dm[i][j], gm[i][j], ref)
			}
		}
	}
}

func TestGroverStateStaysCompact(t *testing.T) {
	// Grover intermediate states have only two distinct amplitudes, so
	// the DD must stay tiny even for many qubits — the property that
	// makes grover a favourable DD benchmark.
	c := Circuit(12, 1234, 5)
	res, err := core.Run(c, core.Options{UseBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Engine.SizeV(res.State); s > 3*12 {
		t.Fatalf("grover state DD has %d nodes, expected O(n)", s)
	}
}

func TestGroverMultiMarked(t *testing.T) {
	n := 7
	marked := []uint64{5, 99, 17, 64}
	c := CircuitMulti(n, marked, 0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(c, core.Options{UseBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	probs := res.State.Probabilities()
	var hit float64
	for _, x := range marked {
		hit += probs[x]
	}
	want := SuccessProbabilityMulti(n, len(marked), IterationsMulti(n, len(marked)))
	if math.Abs(hit-want) > 1e-6 {
		t.Fatalf("P(marked set) = %v, want %v", hit, want)
	}
	if hit < 0.9 {
		t.Fatalf("multi-marked search weak: %v", hit)
	}
	// Marked elements share the amplified probability equally.
	for _, x := range marked {
		if math.Abs(probs[x]-hit/float64(len(marked))) > 1e-9 {
			t.Fatalf("marked element %d has P = %v, want %v", x, probs[x], hit/4)
		}
	}
}

func TestGroverMultiPanics(t *testing.T) {
	mustPanic(t, func() { CircuitMulti(4, nil, 0) })
	mustPanic(t, func() { CircuitMulti(4, []uint64{16}, 0) })
	mustPanic(t, func() { CircuitMulti(4, []uint64{3, 3}, 0) })
	mustPanic(t, func() { IterationsMulti(4, 0) })
}

// More marked elements need fewer iterations.
func TestIterationsMultiMonotone(t *testing.T) {
	n := 10
	prev := Iterations(n)
	if IterationsMulti(n, 1) != prev {
		t.Fatal("IterationsMulti(n,1) != Iterations(n)")
	}
	for m := 2; m <= 16; m *= 2 {
		k := IterationsMulti(n, m)
		if k > prev {
			t.Fatalf("iterations increased with more marked elements: m=%d k=%d prev=%d", m, k, prev)
		}
		prev = k
	}
}

// TestDDRepeatingGroverDrift runs Grover search with each iteration
// combined once and repeated (DD-repeating, Sec. IV-B) for 60 seeded
// marked elements per size and checks the marked-state probability
// against the analytic value. With cnum.Tol at 1e-10, weight merges on
// the ~35-node state compounded over the hundreds of repetitions: the
// worst error over these elements was 1.4e-9 at n = 16, 8.8e-3 at
// n = 17 and 0.10 at n = 18. At 1e-12 n = 18 was still 4.6e-8 while
// every kernel temporary was interned; interning only the weights a
// node stores brought it to ~5e-12, so every case is held to 1e-9.
func TestDDRepeatingGroverDrift(t *testing.T) {
	cases := []struct {
		n    int
		opt  core.Options
		tol  float64
		long bool
	}{
		{16, core.Options{Strategy: core.Sequential{}, UseBlocks: true}, 1e-9, false},
		{17, core.Options{Strategy: core.Sequential{}, UseBlocks: true}, 1e-9, false},
		{18, core.Options{Strategy: core.Sequential{}, UseBlocks: true}, 1e-9, true},
		{18, core.Options{Strategy: core.KOperations{K: 4}}, 1e-9, true},
	}
	const markedPerSize = 60
	for _, tc := range cases {
		name := fmt.Sprintf("n=%d/%s/blocks=%v", tc.n, tc.opt.Strategy.Name(), tc.opt.UseBlocks)
		t.Run(name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("n = 18 runs only without -short")
			}
			want := SuccessProbability(tc.n, Iterations(tc.n))
			rng := rand.New(rand.NewSource(int64(tc.n)))
			var worst float64
			for i := 0; i < markedPerSize; i++ {
				marked := rng.Uint64() & (1<<uint(tc.n) - 1)
				res, err := core.Run(Circuit(tc.n, marked, 0), tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				got := cnum.Abs2(res.State.Amplitude(marked))
				d := math.Abs(got - want)
				if d > tc.tol {
					t.Errorf("marked=%d: P = %.15f, want %.15f (|ΔP| = %.3g > %g)", marked, got, want, d, tc.tol)
				}
				worst = math.Max(worst, d)
			}
			t.Logf("max |ΔP| %.3g over %d marked elements", worst, markedPerSize)
		})
	}
}
