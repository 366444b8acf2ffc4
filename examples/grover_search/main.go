// Grover search: find a marked database entry among 2^16, comparing
// the state-of-the-art sequential simulation against the paper's
// DD-repeating strategy (the Grover iteration is combined into one
// matrix once and re-used for every further iteration). Run with:
//
//	go run repro/examples/grover_search
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/core"
)

func main() {
	const n = 16
	const marked = 0xBEEF & (1<<n - 1)

	iters := repro.GroverIterations(n)
	c := repro.GroverCircuit(n, marked, 0)
	fmt.Printf("searching 2^%d = %d entries for %#x (%d Grover iterations, %d gates)\n",
		n, 1<<n, marked, iters, c.GateCount())

	seq, err := repro.Simulate(c, repro.Sequential())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential (t_sota):     %8v  mat-vec=%d\n", seq.Duration, seq.MatVecSteps)

	rep, err := repro.SimulateOpts(c, core.Options{Strategy: core.Sequential{}, UseBlocks: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DD-repeating:            %8v  mat-vec=%d mat-mat=%d  (%.2fx speed-up)\n",
		rep.Duration, rep.MatVecSteps, rep.MatMatSteps,
		seq.Duration.Seconds()/rep.Duration.Seconds())

	p := rep.State.Prob(0, int(marked&1)) // cheap sanity peek
	_ = p
	probs := rep.State.Probabilities()
	fmt.Printf("P(marked) = %.4f\n", probs[marked])

	rng := rand.New(rand.NewSource(1))
	hits := 0
	const shots = 20
	sampler := rep.State.Sampler()
	for i := 0; i < shots; i++ {
		if sampler.Draw(rng) == marked {
			hits++
		}
	}
	fmt.Printf("measured the marked element in %d/%d shots\n", hits, shots)
}
