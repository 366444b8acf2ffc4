package batch_test

// BenchmarkRunBatch measures the pool running whole simulations (one
// core.RunContext on a fresh engine per job, as ddbench -parallel runs
// its cells) on a Grover workload at 1/2/4/8 workers (EXPERIMENTS.md
// records the numbers), and TestSingleWorkerOverhead guards the
// 1-worker path: the pool must cost < 5% over calling core.RunContext
// directly.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/grover"
)

// benchCircuit is the grover_12 instance (same marked-element rule as
// bench.GroverWorkload): heavy enough that a run dominates scheduling,
// light enough for b.N iterations.
func benchCircuit() *circuit.Circuit {
	const n = 12
	marked := uint64(0x5a5a5a5a5a5a5a5a) & ((1 << n) - 1)
	return grover.Circuit(n, marked, 0)
}

func BenchmarkRunBatch(b *testing.B) {
	c := benchCircuit()
	const jobsPerBatch = 8
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			sims := make([]sim, jobsPerBatch)
			for i := range sims {
				sims[i] = sim{c: c}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := runSims(sims, batch.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for j, r := range results {
					if r.Err != nil {
						b.Fatalf("job %d: %v", j, r.Err)
					}
				}
			}
		})
	}
}

func benchName(workers int) string {
	return "workers-" + string(rune('0'+workers))
}

// TestSingleWorkerOverhead: a 1-worker batch is the degenerate case —
// its per-job cost must stay within 5% of calling core.RunContext in a
// loop (plus a small absolute floor for timer noise on fast runs).
func TestSingleWorkerOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing guard is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	c := benchCircuit()
	const jobsPerBatch = 4

	// Both sides must retain every result until after the timed region:
	// results pin their engines (the state aliases the engine arena), so
	// a baseline that discards them lets the GC reclaim engines mid-loop
	// and times a lighter workload than any batch caller can have.
	touched := 0
	direct := func() time.Duration {
		results := make([]*core.Result, jobsPerBatch)
		start := time.Now()
		for i := range results {
			res, err := core.RunContext(context.Background(), c, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
		}
		elapsed := time.Since(start)
		for _, r := range results {
			touched += r.GatesApplied
		}
		return elapsed
	}
	batched := func() time.Duration {
		sims := make([]sim, jobsPerBatch)
		for i := range sims {
			sims[i] = sim{c: c}
		}
		start := time.Now()
		results, err := runSims(sims, batch.Options{Workers: 1})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range results {
			if r.Err != nil {
				t.Fatalf("job %d: %v", j, r.Err)
			}
			touched += r.Value.GatesApplied
		}
		return elapsed
	}

	// Interleaved min-of-5 on both sides, with a GC barrier before each
	// measurement: heap growth over the test's lifetime shifts GC pacing,
	// so measuring all direct rounds first would bias the comparison.
	const rounds = 5
	var d, p time.Duration
	for i := 0; i < rounds; i++ {
		runtime.GC()
		if m := direct(); i == 0 || m < d {
			d = m
		}
		runtime.GC()
		if m := batched(); i == 0 || m < p {
			p = m
		}
	}
	limit := d + d/20 + 20*time.Millisecond // 5% + noise floor
	t.Logf("direct %v, 1-worker batch %v (limit %v, touched %d)", d, p, limit, touched)
	if p > limit {
		t.Fatalf("1-worker batch overhead: %v vs direct %v (limit %v)", p, d, limit)
	}
}
