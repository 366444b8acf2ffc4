package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dynamic"
	"repro/internal/obs"
)

// sampleShots draws -shots K from the final state in
// batch.SplitShots(K, parallel) shares, share j from its own rng stream
// (base seed + j). A static circuit is simulated once; -parallel only
// fixes how the shots split into seeded streams, so the histogram is
// deterministic for a fixed (seed, parallel) pair, and -parallel 1 is
// the serial single-stream sequence. Samples are DD-indexed and mapped
// back to circuit qubit order through the run's variable order.
func sampleShots(res *core.Result, shots, parallel int, seed int64) map[uint64]int {
	counts := map[uint64]int{}
	for j, share := range batch.SplitShots(shots, parallel) {
		rng := rand.New(rand.NewSource(seed + int64(j)))
		for s := 0; s < share; s++ {
			counts[dd.IndexFromDD(res.Order, res.State.SampleAll(rng))]++
		}
	}
	return counts
}

// runDynamicParallel fans a dynamic program's shot loop across a
// worker pool: each job re-executes the program for its share of the
// shots with its own rng stream (seed + job index) and a fresh engine
// per execution, then the classical histograms are merged.
func runDynamicParallel(prog *dynamic.Program, opt core.Options, shots, parallel int, seed int64) (map[uint64]int, error) {
	shares := batch.SplitShots(shots, parallel)
	if opt.EventSink != nil {
		opt.EventSink = obs.NewSyncSink(opt.EventSink)
	}
	jobs := make([]batch.Job[map[uint64]int], len(shares))
	for j := range jobs {
		j := j
		jobs[j] = func(context.Context, int) (map[uint64]int, error) {
			rng := rand.New(rand.NewSource(seed + int64(j)))
			local := map[uint64]int{}
			for s := 0; s < shares[j]; s++ {
				res, err := prog.Run(opt, rng)
				if err != nil {
					return nil, fmt.Errorf("shot on worker job %d: %w", j, err)
				}
				local[res.Classical]++
			}
			return local, nil
		}
	}
	results, err := batch.Run(context.Background(), jobs,
		batch.Options{Workers: parallel, Metrics: opt.Metrics})
	if err != nil {
		return nil, err
	}
	counts := map[uint64]int{}
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		for bits, n := range r.Value {
			counts[bits] += n
		}
	}
	return counts, nil
}
