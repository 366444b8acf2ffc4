package batch_test

import (
	"context"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
)

// sim is one independent simulation in a batch: a circuit and its
// per-run options.
type sim struct {
	c   *circuit.Circuit
	opt core.Options
}

// runSims runs each simulation as one pool job, the way ddbench
// -parallel runs its cells: core.RunContext on a freshly created engine
// unless the options carry one (chaos tests arm fault injection on one
// job's engine). Engines are not goroutine-safe, so isolation between
// concurrent jobs is per-engine by construction.
func runSims(sims []sim, opt batch.Options) ([]batch.Result[*core.Result], error) {
	jobs := make([]batch.Job[*core.Result], len(sims))
	for i, s := range sims {
		jobs[i] = func(ctx context.Context, _ int) (*core.Result, error) {
			o := s.opt
			if o.Engine == nil {
				o.Engine = dd.New()
			}
			return core.RunContext(ctx, s.c, o)
		}
	}
	return batch.Run(context.Background(), jobs, opt)
}
