// Package batch is a bounded worker pool for running independent jobs
// concurrently. It is the scheduling half of the parallel batch
// runtime: DD simulations parallelise naturally at the granularity of
// whole runs (independent runs share nothing), so the pool knows
// nothing about engines or circuits — a caller gives every job that
// simulates a freshly created engine (ddbench -parallel's cells,
// ddsim's dynamic-program shots, ddserve's jobs through Pool).
//
// Guarantees:
//
//   - Deterministic result ordering: Results[i] always belongs to
//     jobs[i], regardless of which worker ran it or when it finished.
//   - Per-job errors never kill the batch: a failing job records its
//     error in its Result and the pool moves on (unless FailFast).
//   - Aggregate cancellation: cancelling the parent context aborts
//     every running job (jobs receive a derived context) and skips the
//     queued ones; with FailFast, the first job error does the same.
//   - With Workers == 1 the pool degenerates to an in-order sequential
//     loop — the same execution order as calling the jobs directly.
//
// When a metrics registry is supplied the pool maintains per-worker
// labelled instruments (jobs started/done/failed, busy seconds) plus a
// pool-wide queue-wait histogram and in-flight gauge; see the
// batch_* metric names in DESIGN.md §9.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Job is one unit of independent work. The context is a child of the
// batch context and is cancelled on aggregate abort; worker is the
// index of the pool worker running the job (0 ≤ worker < Workers),
// stable for the job's whole duration — per-worker state (an engine,
// an rng) is safe to key on it.
type Job[T any] func(ctx context.Context, worker int) (T, error)

// Options configures a pool run.
type Options struct {
	// Workers bounds the number of jobs in flight; <= 0 selects
	// runtime.GOMAXPROCS(0). The effective worker count never exceeds
	// the number of jobs.
	Workers int
	// FailFast makes the first job error cancel the whole batch: running
	// siblings are aborted through their context and queued jobs are
	// skipped with ErrSkipped. Off by default — one blown job must not
	// kill a sweep.
	FailFast bool
	// Metrics, when set, receives the pool's per-worker instruments.
	Metrics *obs.Registry
}

// Result pairs one job's outcome with its scheduling telemetry.
type Result[T any] struct {
	// Index is the job's position in the input slice (Results are
	// returned in input order, so Results[i].Index == i).
	Index int
	// Worker is the pool worker that ran the job (-1 if it was skipped).
	Worker int
	// Value is the job's return value (zero when Err != nil).
	Value T
	// Err is the job's error: whatever the job returned, a recovered
	// panic, or ErrSkipped when the batch aborted before the job started.
	Err error
	// QueueWait is how long the job sat queued before a worker picked it
	// up; Duration is how long it ran.
	QueueWait time.Duration
	Duration  time.Duration
}

// ErrSkipped marks a job that never ran because the batch was cancelled
// (parent context, or a sibling's error under FailFast) first. Match
// with errors.Is; the cause is wrapped alongside it.
var ErrSkipped = errors.New("batch: job skipped after batch abort")

// workers resolves the effective worker count for n jobs: Workers
// clamped to [1, n], with <= 0 resolving to GOMAXPROCS.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// poolMetrics holds the pool's instruments; nil when no registry was
// supplied. Per-worker series are labelled worker="i" (see obs.Label).
type poolMetrics struct {
	started, done, failed []*obs.Counter // indexed by worker
	busySeconds           []*obs.Counter
	queueWait             *obs.Histogram
	inflight              *obs.Gauge
}

func newPoolMetrics(r *obs.Registry, workers int) *poolMetrics {
	if r == nil {
		return nil
	}
	m := &poolMetrics{
		queueWait: r.Histogram("batch_queue_wait_seconds",
			"Time jobs sat queued before a worker picked them up.",
			obs.ExponentialBuckets(1e-6, 4, 12)),
		inflight: r.Gauge("batch_inflight_jobs", "Jobs currently running in the pool."),
	}
	for w := 0; w < workers; w++ {
		l := strconv.Itoa(w)
		m.started = append(m.started, r.Counter(obs.Label("batch_jobs_started_total", "worker", l),
			"Jobs started, per pool worker."))
		m.done = append(m.done, r.Counter(obs.Label("batch_jobs_done_total", "worker", l),
			"Jobs finished cleanly, per pool worker."))
		m.failed = append(m.failed, r.Counter(obs.Label("batch_jobs_failed_total", "worker", l),
			"Jobs that returned an error, per pool worker."))
		m.busySeconds = append(m.busySeconds, r.Counter(obs.Label("batch_worker_busy_seconds_total", "worker", l),
			"Whole seconds each worker spent running jobs (truncated)."))
	}
	return m
}

// Run executes every job on a bounded worker pool and returns their
// results in input order. Run itself only returns an error for an
// invalid configuration (a nil job); job failures — including the
// cancellation of the whole batch — are reported per Result, so the
// caller always gets one Result per job.
func Run[T any](ctx context.Context, jobs []Job[T], opt Options) ([]Result[T], error) {
	for i, j := range jobs {
		if j == nil {
			return nil, fmt.Errorf("batch: job %d is nil", i)
		}
	}
	results := make([]Result[T], len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.workers(len(jobs))
	met := newPoolMetrics(opt.Metrics, workers)

	// jobCtx aborts every running job on parent cancellation and — under
	// FailFast — on the first job error. When neither can happen (the
	// parent is non-cancellable and FailFast is off) the jobs receive the
	// parent context untouched: a cancellable context makes engine-backed
	// jobs arm their cooperative abort probes, and the pool must not tax
	// runs with cancellation machinery nobody can trigger.
	jobCtx := ctx
	cancelCause := func(error) {}
	if opt.FailFast || ctx.Done() != nil {
		var cancel context.CancelCauseFunc
		jobCtx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		cancelCause = cancel
	}

	var failOnce sync.Once
	fail := func(err error) {
		if opt.FailFast {
			failOnce.Do(func() { cancelCause(err) })
		}
	}

	// One worker runs inline on the calling goroutine — not just an
	// optimisation of the degenerate case: engine-backed jobs recurse
	// deeply and allocate heavily, and running them on a fresh goroutine
	// costs ~20% in stack growth and GC assists. Inline, a 1-worker
	// batch times like calling the jobs directly (the overhead guard in
	// bench_test.go holds it to <5%).
	if workers == 1 {
		enqueue := time.Now()
		for i := range jobs {
			if jobCtx.Err() != nil {
				cause := context.Cause(jobCtx)
				for ; i < len(jobs); i++ {
					results[i] = Result[T]{
						Index:  i,
						Worker: -1,
						Err:    fmt.Errorf("%w: %w", ErrSkipped, cause),
					}
				}
				break
			}
			res := runOne(jobCtx, jobs[i], i, 0, enqueue, met)
			if res.Err != nil && !errors.Is(res.Err, ErrSkipped) {
				fail(res.Err)
			}
			results[i] = res
		}
		return results, nil
	}

	next := make(chan int)
	go func() {
		defer close(next)
		for i := range jobs {
			select {
			case next <- i:
			case <-jobCtx.Done():
				// Mark everything not yet handed out as skipped. The
				// feeding goroutine owns results[i] for undispatched i, so
				// this does not race with the workers.
				cause := context.Cause(jobCtx)
				for ; i < len(jobs); i++ {
					results[i] = Result[T]{
						Index:  i,
						Worker: -1,
						Err:    fmt.Errorf("%w: %w", ErrSkipped, cause),
					}
				}
				return
			}
		}
	}()

	enqueue := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				res := runOne(jobCtx, jobs[i], i, worker, enqueue, met)
				if res.Err != nil && !errors.Is(res.Err, ErrSkipped) {
					fail(res.Err)
				}
				results[i] = res
			}
		}(w)
	}
	wg.Wait()
	return results, nil
}

// runOne executes a single job on a worker, recovering panics into the
// job's error and recording the worker's telemetry.
func runOne[T any](ctx context.Context, job Job[T], index, worker int, enqueue time.Time, met *poolMetrics) (res Result[T]) {
	start := time.Now()
	res = Result[T]{Index: index, Worker: worker, QueueWait: start.Sub(enqueue)}
	if met != nil {
		met.started[worker].Inc()
		met.queueWait.Observe(res.QueueWait.Seconds())
		met.inflight.Add(1)
	}
	defer func() {
		res.Duration = time.Since(start)
		if rec := recover(); rec != nil {
			res.Err = fmt.Errorf("batch: job %d panicked: %v", index, rec)
		}
		if met != nil {
			met.inflight.Add(-1)
			met.busySeconds[worker].Add(uint64(res.Duration.Seconds()))
			if res.Err != nil {
				met.failed[worker].Inc()
			} else {
				met.done[worker].Inc()
			}
		}
	}()
	res.Value, res.Err = job(ctx, worker)
	return res
}

// SplitShots divides total shots across n workers as evenly as
// possible (the first total%n workers get one extra). It is the
// fan-out rule ddsim's -shots -parallel sampling uses; exported so the
// CLI and tests agree on the split.
func SplitShots(total, n int) []int {
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	if total <= 0 {
		return nil
	}
	shares := make([]int, n)
	base, extra := total/n, total%n
	for i := range shares {
		shares[i] = base
		if i < extra {
			shares[i]++
		}
	}
	return shares
}
