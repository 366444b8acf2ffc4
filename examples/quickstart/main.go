// Quickstart: build a small circuit, simulate it with the paper's
// operation-combination strategies, and compare the multiplication
// counts. Run with:
//
//	go run repro/examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	// A 10-qubit GHZ-style circuit with some extra structure.
	c := repro.NewCircuit(10)
	c.H(0)
	for q := 1; q < 10; q++ {
		c.CX(q-1, q)
	}
	for q := 0; q < 10; q++ {
		c.T(q)
	}
	for q := 9; q > 0; q-- {
		c.CX(q-1, q)
	}

	fmt.Println("circuit:", c.GateCount(), "gates on", c.NQubits, "qubits")

	for _, strategy := range []repro.Strategy{
		repro.Sequential(),   // Eq. 1: one matrix-vector product per gate
		repro.KOperations(4), // combine runs of 4 gates first
		repro.MaxSize(64),    // combine until the operation DD exceeds 64 nodes
	} {
		res, err := repro.Simulate(c, strategy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s mat-vec=%3d mat-mat=%3d state-DD=%d nodes, %v\n",
			strategy.Name(), res.MatVecSteps, res.MatMatSteps, res.Engine.SizeV(res.State), res.Duration)
	}

	// All strategies produce the same state; sample from it.
	res, err := repro.Simulate(c, repro.MaxSize(64))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	fmt.Println("five samples from the final state:")
	sampler := res.State.Sampler()
	for i := 0; i < 5; i++ {
		fmt.Printf("  |%010b>\n", sampler.Draw(rng))
	}
	fmt.Printf("P(qubit 9 = 1) = %.3f\n", res.State.Prob(9, 1))
}
