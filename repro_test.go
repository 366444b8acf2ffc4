package repro

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestFacadeBellState(t *testing.T) {
	c := NewCircuit(2)
	c.H(0).CX(0, 1)
	res, err := Simulate(c, nil) // nil → sequential
	if err != nil {
		t.Fatal(err)
	}
	w := 1 / math.Sqrt2
	if got := res.State.Amplitude(0); math.Abs(real(got)-w) > 1e-9 {
		t.Fatalf("amplitude(00) = %v", got)
	}
	if got := res.State.Amplitude(3); math.Abs(real(got)-w) > 1e-9 {
		t.Fatalf("amplitude(11) = %v", got)
	}
}

func TestFacadeStrategiesAgree(t *testing.T) {
	c := SupremacyCircuit(2, 3, 8, 11)
	ref, err := Simulate(c, Sequential())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{KOperations(3), MaxSize(32)} {
		res, err := Simulate(c, st)
		if err != nil {
			t.Fatal(err)
		}
		if f := res.Engine.Fidelity(res.State, ref.State); f < 1-1e-9 {
			// States live in different engines; compare via vectors.
			a := res.State.ToVector()
			b := ref.State.ToVector()
			var ip complex128
			for i := range a {
				ip += complex(real(b[i]), -imag(b[i])) * a[i]
			}
			if fi := real(ip)*real(ip) + imag(ip)*imag(ip); fi < 1-1e-9 {
				t.Fatalf("%s: fidelity %v", st.Name(), fi)
			}
		}
	}
}

func TestFacadeParse(t *testing.T) {
	c, err := ParseCircuit(strings.NewReader("qubits 3\nh 0\nccx 0 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.NQubits != 3 || c.GateCount() != 2 {
		t.Fatalf("parsed %d qubits, %d gates", c.NQubits, c.GateCount())
	}
	if _, err := ParseCircuit(strings.NewReader("nonsense")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestFacadeGrover(t *testing.T) {
	c := GroverCircuit(6, 33, 0)
	res, err := SimulateOpts(c, Options{UseBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.State.Probabilities()[33]; p < 0.9 {
		t.Fatalf("P(marked) = %v", p)
	}
	if GroverIterations(6) != 6 {
		t.Fatalf("GroverIterations(6) = %d", GroverIterations(6))
	}
}

func TestFacadeFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var res *FactoringResult
	var err error
	for i := 0; i < 8 && (res == nil || !res.Factored); i++ {
		res, err = Factor(15, 7, rng)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !res.Factored || res.Factors[0]*res.Factors[1] != 15 {
		t.Fatalf("Factor(15,7) = %+v", res)
	}
}

func TestFacadeQFT(t *testing.T) {
	c := QFTCircuit(4)
	res, err := Simulate(c, MaxSize(64))
	if err != nil {
		t.Fatal(err)
	}
	// QFT|0> is the uniform superposition.
	want := 1 / math.Sqrt(16)
	for i := uint64(0); i < 16; i++ {
		if got := res.State.Amplitude(i); math.Abs(real(got)-want) > 1e-9 || math.Abs(imag(got)) > 1e-9 {
			t.Fatalf("QFT|0> amplitude(%d) = %v", i, got)
		}
	}
}

func TestFacadeEngineReuse(t *testing.T) {
	eng := NewEngine()
	c := NewCircuit(2)
	c.H(0)
	if _, err := SimulateOpts(c, Options{Engine: eng}); err != nil {
		t.Fatal(err)
	}
	if eng.VNodeCount() == 0 {
		t.Fatal("engine not used")
	}
}

func TestFacadeAlgos(t *testing.T) {
	c := BernsteinVazirani(6, 0b101101)
	res, err := Simulate(c, KOperations(4))
	if err != nil {
		t.Fatal(err)
	}
	probs := res.State.Probabilities()
	var inputP float64
	for i, p := range probs {
		if uint64(i)&63 == 0b101101 {
			inputP += p
		}
	}
	if math.Abs(inputP-1) > 1e-9 {
		t.Fatalf("BV: P(secret) = %v", inputP)
	}

	dj := DeutschJozsa(4, 0)
	if dj.GateCount() == 0 {
		t.Fatal("empty DJ circuit")
	}
	qpe := PhaseEstimation(4, 0.25)
	if qpe.NQubits != 5 {
		t.Fatalf("QPE qubits %d", qpe.NQubits)
	}
}

func TestFacadeQASMAndEquivalence(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).CX(0, 1).CCX(0, 1, 2).T(2)
	var sb strings.Builder
	if err := ExportQASM(&sb, c); err != nil {
		t.Fatal(err)
	}
	back, err := ImportQASM(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Equivalent(c, back)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("QASM round trip not equivalent")
	}
	other := NewCircuit(3)
	other.H(1)
	ok, err = Equivalent(c, other)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("distinct circuits reported equivalent")
	}
}

func TestFacadePlanner(t *testing.T) {
	c := SupremacyCircuit(3, 3, 10, 4)
	res, err := Simulate(c, Planner())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.State.Norm()-1) > 1e-9 {
		t.Fatalf("norm %v", res.State.Norm())
	}
}

func TestFacadeRealFormat(t *testing.T) {
	c, err := ImportReal(strings.NewReader(".numvars 2\n.variables a b\n.begin\nt1 a\nt2 a b\n.end\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.GateCount() != 2 {
		t.Fatalf("gates %d", c.GateCount())
	}
	res, err := Simulate(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// X(a); CX(a,b) on |00> → |11>.
	if got := res.State.Amplitude(3); math.Abs(real(got)-1) > 1e-9 {
		t.Fatalf("real-format semantics wrong: %v", got)
	}
	if _, err := ImportReal(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFacadeStateSaveLoad(t *testing.T) {
	c := NewCircuit(4)
	c.H(0).CX(0, 1).CX(1, 2).T(3)
	res, err := Simulate(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveState(&buf, res.State); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	loaded, err := LoadState(&buf, eng)
	if err != nil {
		t.Fatal(err)
	}
	a := res.State.ToVector()
	b := loaded.ToVector()
	for i := range a {
		if d := a[i] - b[i]; math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
			t.Fatalf("amplitude %d changed in save/load", i)
		}
	}
}

func TestFacadeDynamicProgram(t *testing.T) {
	prog, err := ImportDynamicQASM(strings.NewReader(`
qreg q[1];
creg c[1];
h q[0];
measure q[0] -> c[0];
`))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	res, err := prog.Run(Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Classical > 1 {
		t.Fatalf("classical register %d", res.Classical)
	}
	p := NewDynamicProgram(2, 1)
	if p.NQubits != 2 {
		t.Fatal("NewDynamicProgram dims")
	}
}

func TestFacadeOptimize(t *testing.T) {
	c := NewCircuit(2)
	c.H(0).H(0).CX(0, 1)
	out, stats := Optimize(c)
	if out.GateCount() != 1 || stats.Removed() != 2 {
		t.Fatalf("optimise: %d gates, stats %+v", out.GateCount(), stats)
	}
	ok, err := Equivalent(c, out)
	if err != nil || !ok {
		t.Fatalf("optimised circuit not equivalent: %v %v", ok, err)
	}
}

func TestFacadeTFIM(t *testing.T) {
	m := TFIM{Sites: 4, J: 1, H: 0.5}
	c, err := m.TrotterCircuit(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateOpts(c, Options{UseBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.State.Norm()-1) > 1e-9 {
		t.Fatalf("norm %v", res.State.Norm())
	}
	if res.MatVecSteps != 5 {
		t.Fatalf("matvec steps %d, want 5 (one per Trotter step)", res.MatVecSteps)
	}
}
