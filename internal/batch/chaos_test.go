package batch_test

// Worker-isolation tests: one worker's abort — injected fault or
// node-budget trip — must never corrupt or cancel its siblings unless
// the batch runs fail-fast. Fault injection is armed per-process via
// DD_CHAOS=1 (t.Setenv), so these tests also run without the ddchaos
// build tag; the CI chaos job additionally runs them with the tag and
// -race.

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/verify"
)

// referenceAmps computes the serial single-run state for c.
func referenceAmps(t *testing.T, c *circuit.Circuit) []complex128 {
	t.Helper()
	res, err := core.Run(c, core.Options{})
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	return res.State.ToVector()
}

func assertExactAmps(t *testing.T, job int, res *core.Result, want []complex128) {
	t.Helper()
	got := res.State.ToVector()
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("job %d: amplitude %d = %v, want %v (sibling state corrupted)", job, k, got[k], want[k])
		}
	}
}

// TestChaosInjectedAbortIsolatedToWorker: a fault injected into one
// job's engine fails exactly that job with FailureInjected; every
// sibling completes with the exact serial state.
func TestChaosInjectedAbortIsolatedToWorker(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	rng := rand.New(rand.NewSource(7))
	c := verify.RandomCircuit(rng, 5, 60)
	want := referenceAmps(t, c)

	const jobs, victim = 6, 2
	sims := make([]sim, jobs)
	for i := range sims {
		// Per-job engines are supplied by the caller here (one each, never
		// shared) because the injection hook must be armed before the run.
		e := dd.New()
		if i == victim {
			if !e.InjectAbortAfter(10, dd.AbortInjected) {
				t.Fatal("fault injection did not arm despite DD_CHAOS=1")
			}
		}
		sims[i] = sim{c, core.Options{Engine: e}}
	}
	results, err := runSims(sims, batch.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i == victim {
			if !errors.Is(r.Err, core.ErrInjectedAbort) {
				t.Fatalf("victim job: err %v, want injected abort", r.Err)
			}
			var re *core.RunError
			if !errors.As(r.Err, &re) || re.Kind != core.FailureInjected {
				t.Fatalf("victim job: error not a FailureInjected RunError: %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("sibling job %d failed alongside the injected abort: %v", i, r.Err)
		}
		assertExactAmps(t, i, r.Value, want)
	}
}

// TestChaosFailFastInjectionCancelsSiblings: the same injected fault
// under FailFast cancels the batch — queued jobs are skipped with
// batch.ErrSkipped wrapping the injected abort as the cause.
func TestChaosFailFastInjectionCancelsSiblings(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	rng := rand.New(rand.NewSource(11))
	// Sibling circuits are deliberately heavy (~ms) so the cancellation
	// deterministically outruns the queue.
	victim := verify.RandomCircuit(rng, 5, 40)
	heavy := verify.RandomCircuit(rng, 10, 150)

	const jobs = 16
	sims := make([]sim, jobs)
	for i := range sims {
		if i == 0 {
			e := dd.New()
			if !e.InjectAbortAfter(5, dd.AbortInjected) {
				t.Fatal("fault injection did not arm despite DD_CHAOS=1")
			}
			sims[i] = sim{victim, core.Options{Engine: e}}
			continue
		}
		sims[i] = sim{c: heavy}
	}
	results, err := runSims(sims, batch.Options{Workers: 2, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, core.ErrInjectedAbort) {
		t.Fatalf("job 0: %v, want injected abort", results[0].Err)
	}
	skipped := 0
	for i, r := range results[1:] {
		switch {
		case r.Err == nil:
			// Dispatched before the abort propagated; legitimate.
		case errors.Is(r.Err, batch.ErrSkipped):
			skipped++
			if !errors.Is(r.Err, core.ErrInjectedAbort) {
				t.Fatalf("job %d: skip cause %v, want the injected abort", i+1, r.Err)
			}
		case errors.Is(r.Err, core.ErrCanceled):
			// Dispatched into the already-cancelled batch; also legitimate.
		default:
			t.Fatalf("job %d: unexpected error %v", i+1, r.Err)
		}
	}
	if skipped == 0 {
		t.Fatal("fail-fast injection skipped no queued siblings")
	}
}

// TestBatchBudgetTripIsolated: one job with a tiny node budget trips
// FailureBudget; without FailFast its siblings finish untouched with
// the exact serial state. This is the no-chaos half of the isolation
// guarantee — a real budget exhaustion, not an injected one.
func TestBatchBudgetTripIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := verify.RandomCircuit(rng, 6, 60)
	want := referenceAmps(t, c)

	const jobs, victim = 5, 1
	sims := make([]sim, jobs)
	for i := range sims {
		o := core.Options{}
		if i == victim {
			o.MaxNodes = 2 // no 6-qubit run fits two live nodes
			o.Degrade = "off"
		}
		sims[i] = sim{c, o}
	}
	results, err := runSims(sims, batch.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i == victim {
			if !errors.Is(r.Err, core.ErrBudgetExceeded) {
				t.Fatalf("victim job: err %v, want budget exceeded", r.Err)
			}
			var re *core.RunError
			if !errors.As(r.Err, &re) || re.Kind != core.FailureBudget {
				t.Fatalf("victim job: error not a FailureBudget RunError: %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("sibling job %d failed alongside the budget trip: %v", i, r.Err)
		}
		assertExactAmps(t, i, r.Value, want)
	}
}
