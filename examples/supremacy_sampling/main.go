// Supremacy sampling: simulate a Boixo-et-al.-style random grid circuit
// — the workload where intermediate state DDs grow large and combining
// operations pays off the most (Example 3 of the paper) — and sample
// output bitstrings. Run with:
//
//	go run repro/examples/supremacy_sampling
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	const rows, cols, depth, seed = 4, 4, 14, 2026
	c := repro.SupremacyCircuit(rows, cols, depth, seed)
	fmt.Printf("%s: %d qubits, %d gates, depth %d\n", c.Name, c.NQubits, c.GateCount(), c.Depth())

	type outcome struct {
		name string
		st   repro.Strategy
	}
	var baseline float64
	for _, o := range []outcome{
		{"sequential (Eq. 1)", repro.Sequential()},
		{"k-operations, k=4", repro.KOperations(4)},
		{"max-size, s=256", repro.MaxSize(256)},
	} {
		res, err := repro.Simulate(c, o.st)
		if err != nil {
			log.Fatal(err)
		}
		secs := res.Duration.Seconds()
		if baseline == 0 {
			baseline = secs
		}
		fmt.Printf("  %-22s %8.3fs  speed-up %.2fx  (mat-vec %d, mat-mat %d, peak op DD %d)\n",
			o.name, secs, baseline/secs, res.MatVecSteps, res.MatMatSteps,
			res.Stats.PeakMatrixSize)
	}

	res, err := repro.Simulate(c, repro.MaxSize(256))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final state DD: %d nodes (dense vector would need %d amplitudes)\n",
		res.Engine.SizeV(res.State), 1<<uint(c.NQubits))

	rng := rand.New(rand.NewSource(9))
	fmt.Println("eight sampled bitstrings:")
	sampler := res.State.Sampler()
	for i := 0; i < 8; i++ {
		fmt.Printf("  %016b\n", sampler.Draw(rng))
	}
}
