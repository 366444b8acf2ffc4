package batch_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/batch"
	"repro/internal/obs"
)

// TestResultsInInputOrder: results must land at their job's index no
// matter which worker ran them or in what order they finished.
func TestResultsInInputOrder(t *testing.T) {
	const n = 64
	jobs := make([]batch.Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context, int) (int, error) { return i * i, nil }
	}
	for _, workers := range []int{1, 3, 8} {
		res, err := batch.Run(context.Background(), jobs, batch.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), n)
		}
		for i, r := range res {
			if r.Index != i || r.Value != i*i || r.Err != nil {
				t.Fatalf("workers=%d: result %d = {Index:%d Value:%d Err:%v}", workers, i, r.Index, r.Value, r.Err)
			}
			if r.Worker < 0 || r.Worker >= workers {
				t.Fatalf("workers=%d: result %d ran on worker %d", workers, i, r.Worker)
			}
		}
	}
}

// TestSingleWorkerRunsSequentiallyInOrder: with one worker the pool
// must degenerate to an in-order loop.
func TestSingleWorkerRunsSequentiallyInOrder(t *testing.T) {
	var order []int
	jobs := make([]batch.Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context, int) (int, error) {
			order = append(order, i) // single worker: no race
			return i, nil
		}
	}
	if _, err := batch.Run(context.Background(), jobs, batch.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v, want ascending", order)
		}
	}
}

// TestPerJobErrorsDoNotKillBatch: failing jobs record their error and
// every sibling still runs.
func TestPerJobErrorsDoNotKillBatch(t *testing.T) {
	boom := errors.New("boom")
	jobs := make([]batch.Job[int], 12)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context, int) (int, error) {
			if i%3 == 0 {
				return 0, fmt.Errorf("job %d: %w", i, boom)
			}
			return i, nil
		}
	}
	res, err := batch.Run(context.Background(), jobs, batch.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if i%3 == 0 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("job %d: err %v, want boom", i, r.Err)
			}
		} else if r.Err != nil || r.Value != i {
			t.Fatalf("job %d: {Value:%d Err:%v}, want clean %d", i, r.Value, r.Err, i)
		}
	}
}

// TestFailingJobsNeverSkipSiblings: every job runs even when most of
// them fail — a job error never cancels the batch.
func TestFailingJobsNeverSkipSiblings(t *testing.T) {
	var ran atomic.Int64
	jobs := make([]batch.Job[int], 20)
	for i := range jobs {
		jobs[i] = func(context.Context, int) (int, error) {
			ran.Add(1)
			return 0, errors.New("always fails")
		}
	}
	res, err := batch.Run(context.Background(), jobs, batch.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran %d jobs, want all 20", got)
	}
	for i, r := range res {
		if errors.Is(r.Err, batch.ErrSkipped) {
			t.Fatalf("job %d skipped after a sibling failed", i)
		}
	}
}

// TestParentCancellationSkipsAndAborts: cancelling the parent context
// aborts running jobs (their context closes) and skips queued ones;
// skipped results wrap ErrSkipped with the cause and carry Worker == -1.
func TestParentCancellationSkipsAndAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	jobs := make([]batch.Job[int], 16)
	for i := range jobs {
		jobs[i] = func(jctx context.Context, _ int) (int, error) {
			once.Do(func() { close(started) })
			<-jctx.Done()
			return 0, jctx.Err()
		}
	}
	go func() {
		<-started
		cancel()
	}()
	res, err := batch.Run(ctx, jobs, batch.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("job %d finished cleanly after parent cancellation", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: %v, want canceled or skipped wrapping the cause", i, r.Err)
		}
		if errors.Is(r.Err, batch.ErrSkipped) {
			skipped++
			if r.Worker != -1 {
				t.Fatalf("job %d skipped but Worker = %d", i, r.Worker)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("parent cancellation skipped no queued jobs")
	}
}

// TestPanicBecomesJobError: a panicking job must not crash the pool.
func TestPanicBecomesJobError(t *testing.T) {
	jobs := []batch.Job[int]{
		func(context.Context, int) (int, error) { panic("kaboom") },
		func(context.Context, int) (int, error) { return 7, nil },
	}
	res, err := batch.Run(context.Background(), jobs, batch.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "kaboom") {
		t.Fatalf("panic not converted: %v", res[0].Err)
	}
	if res[1].Err != nil || res[1].Value != 7 {
		t.Fatalf("sibling of panicking job damaged: %+v", res[1])
	}
}

// TestNilJobRejected: configuration errors are the only way Run fails.
func TestNilJobRejected(t *testing.T) {
	if _, err := batch.Run(context.Background(), []batch.Job[int]{nil}, batch.Options{}); err == nil {
		t.Fatal("nil job accepted")
	}
}

// TestPoolMetrics: per-worker labelled counters must add up to the job
// count and the queue-wait histogram must have seen every job.
func TestPoolMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	jobs := make([]batch.Job[int], 9)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context, int) (int, error) {
			if i == 4 {
				return 0, errors.New("one failure")
			}
			return i, nil
		}
	}
	if _, err := batch.Run(context.Background(), jobs, batch.Options{Workers: 3, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var started, done, failed, waits uint64
	for _, s := range reg.Snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "batch_jobs_started_total{"):
			started += uint64(s.Value)
		case strings.HasPrefix(s.Name, "batch_jobs_done_total{"):
			done += uint64(s.Value)
		case strings.HasPrefix(s.Name, "batch_jobs_failed_total{"):
			failed += uint64(s.Value)
		case s.Name == "batch_queue_wait_seconds":
			waits = s.Count
		}
	}
	if started != 9 || done != 8 || failed != 1 {
		t.Fatalf("started/done/failed = %d/%d/%d, want 9/8/1", started, done, failed)
	}
	if waits != 9 {
		t.Fatalf("queue-wait histogram saw %d jobs, want 9", waits)
	}
	// The labelled families must render under a single TYPE header each.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "# TYPE batch_jobs_started_total counter"); got != 1 {
		t.Fatalf("labelled family rendered %d TYPE headers:\n%s", got, sb.String())
	}
}

// TestSplitShots: shares must sum to the total and differ by at most 1.
func TestSplitShots(t *testing.T) {
	for _, tc := range []struct{ total, n, wantLen int }{
		{10, 4, 4}, {3, 8, 3}, {8, 8, 8}, {0, 4, 0}, {5, 0, 1},
	} {
		shares := batch.SplitShots(tc.total, tc.n)
		if len(shares) != tc.wantLen {
			t.Fatalf("SplitShots(%d,%d): %d shares, want %d", tc.total, tc.n, len(shares), tc.wantLen)
		}
		sum, min, max := 0, tc.total, 0
		for _, s := range shares {
			sum += s
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if sum != tc.total {
			t.Fatalf("SplitShots(%d,%d) sums to %d", tc.total, tc.n, sum)
		}
		if len(shares) > 0 && max-min > 1 {
			t.Fatalf("SplitShots(%d,%d) uneven: %v", tc.total, tc.n, shares)
		}
	}
}

// TestWorkerCountClamped pins the pool's worker count: Workers clamped
// to the job count, the default (<= 0) on one job is one worker, and an
// empty batch starts none. The per-worker metric series show how many
// workers the pool started.
func TestWorkerCountClamped(t *testing.T) {
	for _, tc := range []struct{ workers, jobs, want int }{
		{8, 3, 3},
		{2, 100, 2},
		{0, 1, 1},
		{4, 0, 0},
	} {
		reg := obs.NewRegistry()
		jobs := make([]batch.Job[int], tc.jobs)
		for i := range jobs {
			jobs[i] = func(context.Context, int) (int, error) { return 0, nil }
		}
		res, err := batch.Run(context.Background(), jobs, batch.Options{Workers: tc.workers, Metrics: reg})
		if err != nil || len(res) != tc.jobs {
			t.Fatalf("%d jobs: %d results, err %v", tc.jobs, len(res), err)
		}
		got := 0
		for _, s := range reg.Snapshot() {
			if strings.HasPrefix(s.Name, "batch_jobs_started_total{") {
				got++
			}
		}
		if got != tc.want {
			t.Fatalf("%d workers / %d jobs ran %d workers, want %d", tc.workers, tc.jobs, got, tc.want)
		}
	}
}
