package batch_test

// Differential tests for the parallel batch runtime: the same random
// circuits go through serial core.Run and through batch.Run jobs (one
// core.RunContext on a fresh engine each) at several worker counts, and the batch results must be indistinguishable from
// the serial ones — amplitude-exact state vectors and equal engine
// counters. Because every job runs on its own freshly created engine,
// the computation is deterministic: any difference is a real isolation
// bug (shared state, cross-worker cache pollution), not noise.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/cnum"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/grover"
	"repro/internal/verify"
)

// comparableStats strips the wall-clock fields (GC pause times) that
// legitimately vary between runs; every remaining counter must be
// bit-identical between a serial and a batch execution.
func comparableStats(s dd.Stats) dd.Stats {
	s.GCPause = 0
	s.GCMaxPause = 0
	return s
}

// TestBatchMatchesSerial is satellite 1: random circuits through serial
// core.Run and batch jobs with 1, 4 and 8 workers; amplitude-exact state
// vectors, equal per-run engine counters, and a dense cross-check.
func TestBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const trials = 12
	type serialRun struct {
		c     *circuit.Circuit
		opt   core.Options
		amps  []complex128
		stats dd.Stats
		res   *core.Result
	}
	// One more job trips its node budget, so the degradation journals
	// (budget-abort replays) are compared too.
	runs := make([]serialRun, trials+1)
	sims := make([]sim, trials+1)
	for i := range runs {
		n := 2 + rng.Intn(5)
		c := verify.RandomCircuit(rng, n, 20+rng.Intn(20))
		var st core.Strategy
		switch i % 3 {
		case 0:
			st = core.Sequential{}
		case 1:
			st = core.KOperations{K: 1 + rng.Intn(6)}
		default:
			st = core.MaxSize{SMax: 1 << uint(2+rng.Intn(6))}
		}
		opt := core.Options{Strategy: st}
		if i == trials {
			c = grover.Circuit(10, 3, 0)
			opt = core.Options{Strategy: core.MaxSize{SMax: 1 << 20}, MaxNodes: 150}
		}
		res, err := core.Run(c, opt)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		if i == trials && res.Replays() == 0 {
			t.Fatal("budgeted serial run never replayed")
		}
		runs[i] = serialRun{c: c, opt: opt, amps: res.State.ToVector(), stats: comparableStats(res.Stats), res: res}
		sims[i] = sim{c, opt}

		// Dense oracle cross-check on the serial reference itself, so a
		// batch/serial match cannot hide an agreed-upon wrong answer.
		if f := verify.Fidelity(runs[i].amps, dense.Simulate(c)); f < 1-1e-9 {
			t.Fatalf("serial run %d disagrees with dense oracle: fidelity %v", i, f)
		}
	}

	for _, workers := range []int{1, 4, 8} {
		results, err := runSims(sims, batch.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			got := r.Value.State.ToVector()
			if len(got) != len(runs[i].amps) {
				t.Fatalf("workers=%d job %d: vector length %d, want %d", workers, i, len(got), len(runs[i].amps))
			}
			for k := range got {
				if got[k] != runs[i].amps[k] { // exact: same ops on a fresh engine
					t.Fatalf("workers=%d job %d: amplitude %d = %v, serial %v",
						workers, i, k, got[k], runs[i].amps[k])
				}
			}
			if bs := comparableStats(r.Value.Stats); bs != runs[i].stats {
				t.Fatalf("workers=%d job %d: engine counters diverge from serial run:\nbatch:  %+v\nserial: %+v",
					workers, i, bs, runs[i].stats)
			}
			if r.Value.MatVecSteps != runs[i].res.MatVecSteps ||
				r.Value.MatMatSteps != runs[i].res.MatMatSteps ||
				r.Value.GatesApplied != runs[i].res.GatesApplied ||
				!slices.Equal(r.Value.Degradations, runs[i].res.Degradations) {
				t.Fatalf("workers=%d job %d: step counters diverge from serial run", workers, i)
			}
		}
	}
}

// TestAllStrategiesBatchProperty is satellite 2: for 50 seeded random
// circuits, a batch sweep across every strategy family must reproduce
// the sequential state vector with fidelity 1 (within cnum tolerance).
func TestAllStrategiesBatchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	const circuits = 50
	for trial := 0; trial < circuits; trial++ {
		n := 2 + rng.Intn(4)
		c := verify.RandomCircuit(rng, n, 20+rng.Intn(20))
		ref, err := core.Run(c, core.Options{Strategy: core.Sequential{}})
		if err != nil {
			t.Fatalf("trial %d: sequential reference: %v", trial, err)
		}
		refAmps := ref.State.ToVector()

		strategies := []core.Strategy{
			core.Sequential{},
			core.KOperations{K: 1 + rng.Intn(8)},
			core.MaxSize{SMax: 1 << uint(2+rng.Intn(7))},
			core.MaxSize{SMax: 1 << uint(2+rng.Intn(7))},
			core.Planner{},
			core.CombineAll{},
		}
		sims := make([]sim, len(strategies))
		for i, st := range strategies {
			sims[i] = sim{c, core.Options{Strategy: st}}
		}
		results, err := runSims(sims, batch.Options{Workers: len(strategies)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("trial %d %s: %v", trial, strategies[i].Name(), r.Err)
			}
			got := r.Value.State.ToVector()
			var ip complex128
			for k := range got {
				ip += complex(real(refAmps[k]), -imag(refAmps[k])) * got[k]
			}
			if f := cnum.Abs2(ip); f < 1-1e-9 {
				t.Fatalf("trial %d %s: fidelity %v against sequential state", trial, strategies[i].Name(), f)
			}
		}
	}
}
