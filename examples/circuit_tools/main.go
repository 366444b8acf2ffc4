// Circuit toolchain: import an OpenQASM 2.0 program, verify a hand
// optimisation with the DD-based equivalence checker, compute Pauli
// observables, and score sampled bitstrings with linear cross-entropy
// benchmarking. Run with:
//
//	go run repro/examples/circuit_tools
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro"
	"repro/internal/dd"
)

const original = `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
t q[3];
tdg q[3];      // cancels the T — an "optimiser" should remove both
cx q[2],q[3];
cx q[1],q[2];
cx q[0],q[1];
h q[0];
`

func main() {
	c, err := repro.ImportQASM(strings.NewReader(original))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d-qubit OpenQASM circuit with %d gates\n", c.NQubits, c.GateCount())

	// The circuit above is the identity in disguise: H/CX ladder, a
	// cancelling T·T†, and the mirrored ladder. Verify with the
	// DD-based checker (full-circuit matrix-matrix combination).
	identity := repro.NewCircuit(4)
	same, err := repro.Equivalent(c, identity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("equivalent to the identity:", same)

	// A genuinely different "optimisation" must be rejected.
	broken, err := repro.ImportQASM(strings.NewReader(
		"OPENQASM 2.0;\nqreg q[4];\nh q[0];\n"))
	if err != nil {
		log.Fatal(err)
	}
	same, err = repro.Equivalent(c, broken)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("equivalent to a lone Hadamard:", same)

	// Observables on a GHZ state.
	ghz := repro.NewCircuit(4)
	ghz.H(0).CX(0, 1).CX(1, 2).CX(2, 3)
	res, err := repro.Simulate(ghz, repro.KOperations(4))
	if err != nil {
		log.Fatal(err)
	}
	for _, obs := range []string{"ZZZZ", "XXXX", "ZIIZ", "ZIII"} {
		p, err := dd.ParsePauliString(obs, 4)
		if err != nil {
			log.Fatal(err)
		}
		val, err := res.Engine.Expectation(res.State, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GHZ <%s> = %+.3f\n", obs, val)
	}

	// Linear XEB of a supremacy-style circuit sampled from its own
	// output distribution (≈ Porter-Thomas, so the score approaches 1).
	sup := repro.SupremacyCircuit(3, 4, 14, 99)
	supRes, err := repro.Simulate(sup, repro.MaxSize(256))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var samples []uint64
	sampler := supRes.State.Sampler()
	for i := 0; i < 3000; i++ {
		samples = append(samples, sampler.Draw(rng))
	}
	fmt.Printf("linear XEB of ideal sampling on %s: %.3f (1.0 = perfect, 0 = noise)\n",
		sup.Name, dd.LinearXEB(supRes.State, samples))

	// Round-trip back to OpenQASM.
	var sb strings.Builder
	if err := repro.ExportQASM(&sb, ghz); err != nil {
		log.Fatal(err)
	}
	fmt.Println("GHZ circuit re-exported as OpenQASM:")
	fmt.Print(sb.String())
}
