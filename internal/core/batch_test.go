package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/obs"
)

func TestRunBatchRejectsNilCircuit(t *testing.T) {
	jobs := []BatchJob{{Circuit: circuit.New(2)}, {}}
	if _, err := RunBatch(context.Background(), jobs, BatchOptions{}); err == nil {
		t.Fatal("nil circuit accepted")
	}
}

func TestRunBatchEmpty(t *testing.T) {
	res, err := RunBatch(context.Background(), nil, BatchOptions{Workers: 4})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v results, err %v", len(res), err)
	}
}

// TestRunBatchBudgetSplit: BatchOptions.MaxNodes is a shared budget
// divided across the in-flight workers. A batch whose split share is
// too small for the circuit must trip FailureBudget on every job; the
// same batch with no shared budget succeeds; and a job carrying its own
// tighter budget keeps it even when the batch share is generous.
func TestRunBatchBudgetSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(rng, 6, 50, false)

	mk := func(n int) []BatchJob {
		jobs := make([]BatchJob, n)
		for i := range jobs {
			jobs[i] = BatchJob{Circuit: c, Options: Options{Degrade: "off"}}
		}
		return jobs
	}

	// 4 workers share 8 nodes → 2 per job: nothing fits.
	res, err := RunBatch(context.Background(), mk(4), BatchOptions{Workers: 4, MaxNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, ErrBudgetExceeded) {
			t.Fatalf("job %d under split budget: err %v, want budget exceeded", i, r.Err)
		}
	}

	// No shared budget: everything runs.
	res, err = RunBatch(context.Background(), mk(4), BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d without budget: %v", i, r.Err)
		}
	}

	// A per-job budget tighter than the split share wins.
	jobs := mk(3)
	jobs[1].Options.MaxNodes = 2
	res, err = RunBatch(context.Background(), jobs, BatchOptions{Workers: 3, MaxNodes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if i == 1 {
			if !errors.Is(r.Err, ErrBudgetExceeded) {
				t.Fatalf("job 1 with own tiny budget: err %v, want budget exceeded", r.Err)
			}
		} else if r.Err != nil {
			t.Fatalf("job %d under generous split: %v", i, r.Err)
		}
	}
}

// TestRunBatchWorkerMetrics: the pool instruments and the per-worker
// peak-node gauges (fed from run_end events) must be populated.
func TestRunBatchWorkerMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng, 5, 40, false)
	jobs := make([]BatchJob, 6)
	for i := range jobs {
		jobs[i] = BatchJob{Circuit: c}
	}
	reg := obs.NewRegistry()
	res, err := RunBatch(context.Background(), jobs, BatchOptions{Workers: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	var started float64
	var peak float64
	for _, s := range reg.Snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "batch_jobs_started_total{"):
			started += s.Value
		case strings.HasPrefix(s.Name, "batch_worker_peak_nodes{"):
			if s.Value > peak {
				peak = s.Value
			}
		}
	}
	if started != 6 {
		t.Fatalf("batch_jobs_started_total sums to %v, want 6", started)
	}
	if peak <= 0 {
		t.Fatal("no batch_worker_peak_nodes gauge was fed from run_end")
	}
}

// countingSink is deliberately not goroutine-safe: RunBatch promises to
// serialise the shared event sink, and the race detector holds it to
// that promise here.
type countingSink struct{ runEnds, events int }

func (s *countingSink) Emit(e obs.Event) {
	s.events++
	if e.Kind == obs.KindRunEnd {
		s.runEnds++
	}
}

func TestRunBatchSharedEventSinkSerialised(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(rng, 5, 40, false)
	jobs := make([]BatchJob, 8)
	for i := range jobs {
		jobs[i] = BatchJob{Circuit: c}
	}
	sink := &countingSink{}
	res, err := RunBatch(context.Background(), jobs, BatchOptions{Workers: 4, Events: sink})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if sink.runEnds != len(jobs) {
		t.Fatalf("shared sink saw %d run_end events, want %d", sink.runEnds, len(jobs))
	}
}
