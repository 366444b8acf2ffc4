// Package crossval contains randomized differential tests that drive
// every layer of the system against every other: DD simulation under
// all strategies vs. the dense oracle, format round trips (native,
// OpenQASM, RevLib), the optimiser, serialisation, and the equivalence
// checker — on the same randomly generated circuits. A bug in any
// single layer shows up as a disagreement here even if that layer's
// unit tests missed it.
package crossval

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnum"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/opt"
	"repro/internal/qasm"
	"repro/internal/realfmt"
	"repro/internal/verify"
)

// TestEverythingAgreesOnRandomCircuits is the grand differential test:
// for each random circuit, all simulation strategies, the optimised
// circuit, the QASM round trip and the serialised state must agree
// with the dense oracle.
func TestEverythingAgreesOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(5)
		c := verify.RandomCircuit(rng, n, 25+rng.Intn(25))
		oracle := dense.Simulate(c)

		strategies := []core.Strategy{
			core.Sequential{},
			core.KOperations{K: 1 + rng.Intn(8)},
			core.MaxSize{SMax: 1 << uint(2+rng.Intn(7))},
			core.Adaptive{Ratio: 0.25 * float64(1+rng.Intn(8))},
			core.CombineAll{},
		}
		var lastState dd.VEdge
		var lastEng *dd.Engine
		for _, st := range strategies {
			res, err := core.Run(c, core.Options{Strategy: st})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, st.Name(), err)
			}
			if f := verify.Fidelity(res.State.ToVector(), oracle); f < 1-1e-9 {
				t.Fatalf("trial %d %s: fidelity %v", trial, st.Name(), f)
			}
			lastState, lastEng = res.State, res.Engine
		}

		// Optimiser: must preserve the unitary exactly.
		optimised, _ := opt.Optimize(c)
		optState := dense.Simulate(optimised)
		if f := oracle.Fidelity(optState); f < 1-1e-9 {
			t.Fatalf("trial %d: optimiser broke the circuit (fidelity %v)", trial, f)
		}

		// QASM round trip.
		text, err := qasm.ExportString(c)
		if err != nil {
			t.Fatalf("trial %d: export: %v", trial, err)
		}
		back, err := qasm.ParseString(text)
		if err != nil {
			t.Fatalf("trial %d: re-import: %v", trial, err)
		}
		if f := oracle.Fidelity(dense.Simulate(back.Circuit)); f < 1-1e-9 {
			t.Fatalf("trial %d: QASM round trip fidelity %v", trial, f)
		}

		// Native text format round trip.
		nc, err := circuit.ParseString(c.String())
		if err != nil {
			t.Fatalf("trial %d: native re-import: %v", trial, err)
		}
		if f := oracle.Fidelity(dense.Simulate(nc)); f < 1-1e-9 {
			t.Fatalf("trial %d: native round trip fidelity %v", trial, f)
		}

		// Serialisation round trip of the final DD state.
		var buf bytes.Buffer
		if err := dd.WriteV(&buf, lastState); err != nil {
			t.Fatalf("trial %d: serialise: %v", trial, err)
		}
		eng2 := dd.New()
		restored, err := dd.ReadV(&buf, eng2)
		if err != nil {
			t.Fatalf("trial %d: deserialise: %v", trial, err)
		}
		if f := verify.Fidelity(restored.ToVector(), oracle); f < 1-1e-9 {
			t.Fatalf("trial %d: serialisation fidelity %v", trial, f)
		}

		// Equivalence checker: circuit ≡ optimised circuit; circuit ≢ a
		// perturbed copy.
		eq, err := core.Equivalent(lastEng, c, optimised)
		if err != nil {
			t.Fatalf("trial %d: equivalence: %v", trial, err)
		}
		if !eq.Equivalent {
			t.Fatalf("trial %d: optimised circuit not equivalent (overlap %v)", trial, eq.HSOverlap)
		}
		perturbed := circuit.New(n)
		perturbed.Gates = append(perturbed.Gates, c.Gates...)
		perturbed.RY(1.234567, rng.Intn(n))
		eq, err = core.Equivalent(lastEng, c, perturbed)
		if err != nil {
			t.Fatal(err)
		}
		if eq.Equivalent {
			t.Fatalf("trial %d: perturbed circuit wrongly equivalent", trial)
		}
	}
}

// TestReversibleSubsetThroughRealFormat drives circuits that stay in
// the reversible subset through the .real round trip and all
// strategies.
func TestReversibleSubsetThroughRealFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(3)
		c := circuit.New(n)
		for i := 0; i < 20; i++ {
			q := rng.Intn(n)
			p := (q + 1 + rng.Intn(n-1)) % n
			switch rng.Intn(3) {
			case 0:
				c.X(q)
			case 1:
				c.CX(q, p)
			default:
				r := (p + 1) % n
				if r != q && r != p {
					c.CCX(q, p, r)
				} else {
					c.X(q)
				}
			}
		}
		var buf bytes.Buffer
		if err := realfmt.Export(&buf, c); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prog, err := realfmt.Parse(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oracle := dense.Simulate(c)
		if f := oracle.Fidelity(dense.Simulate(prog.Circuit)); f < 1-1e-9 {
			t.Fatalf("trial %d: .real round trip fidelity %v", trial, f)
		}
		// Reversible circuits map basis states to basis states: the DD
		// state must have exactly n nodes throughout.
		res, err := core.Run(prog.Circuit, core.Options{Strategy: core.MaxSize{SMax: 64}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine.SizeV(res.State) != n {
			t.Fatalf("trial %d: reversible circuit produced non-basis DD (%d nodes)", trial, res.Engine.SizeV(res.State))
		}
	}
}

// TestDynamicEqualsStaticOnDeferredMeasurement checks the principle of
// deferred measurement: measuring at the end (dense, marginal
// distribution) equals the dynamic run statistics.
func TestDynamicEqualsStaticOnDeferredMeasurement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := `
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
t q[1];
h q[2];
cp(pi/4) q[1],q[2];
measure q -> c;
`
	prog, err := qasm.ParseDynamicString(src)
	if err != nil {
		t.Fatal(err)
	}
	static, err := qasm.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	oracle := dense.Simulate(static.Circuit)
	counts := make([]int, 8)
	const shots = 6000
	for i := 0; i < shots; i++ {
		res, err := prog.Run(core.Options{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Classical]++
	}
	for idx := 0; idx < 8; idx++ {
		want := cnum.Abs2(oracle.Amps[idx])
		got := float64(counts[idx]) / shots
		if math.Abs(got-want) > 0.035 {
			t.Fatalf("outcome %03b: frequency %v, dense probability %v", idx, got, want)
		}
	}
}
