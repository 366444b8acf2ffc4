package core

import "errors"

// ErrCheckpointWrite marks a failure to persist a checkpoint (the
// OnCheckpoint callback returned an error, either periodically or on
// the abort path). It is wrapped into the run's returned error; match
// with errors.Is. Checkpoint-write failures are never retryable: the
// journal medium is broken, and re-running the job would only lose the
// work again.
var ErrCheckpointWrite = errors.New("core: checkpoint write failed")

// Retryable reports whether a failed run is worth re-executing — the
// classification the serving layer (internal/serve) uses to decide
// between scheduling a backoff retry and failing a job permanently.
//
// Retryable failure kinds:
//
//   - FailureInjected: chaos-injected aborts are transient by
//     construction — the rehearsal of a cosmic-ray class fault.
//   - FailureBudget: node-budget exhaustion depends on what else is
//     sharing the engine's budget pool at the time; a later attempt
//     under a quieter box (or with the degradation ladder armed) can
//     succeed.
//   - FailurePanic: a recovered engine panic with no identified cause.
//     A deterministic panic burns the retry budget and then fails; a
//     one-off does not kill the job.
//   - FailurePressure: the memory-pressure governor parked the run
//     behind a checkpoint; re-admitting it under a quieter budget (or
//     after siblings released theirs) resumes from the park point.
//
// Non-retryable:
//
//   - FailureDeadline: the job's own time budget expired; a retry
//     would consume the same budget again and fail the same way.
//   - FailureCanceled: the caller asked for the stop.
//   - FailureCorruption: verification found damage. The run's last
//     checkpoint passed verification and is where a caller resumes;
//     re-running the failed attempt on the same inputs is how the
//     damage was produced.
//   - ErrCheckpointWrite anywhere in the error chain: the durability
//     medium is failing, not the computation.
//   - Anything that is not a *RunError (configuration errors,
//     malformed circuits): deterministic, fails identically on retry.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCheckpointWrite) || errors.Is(err, ErrCorruption) {
		return false
	}
	var re *RunError
	if !errors.As(err, &re) {
		return false
	}
	switch re.Kind {
	case FailureInjected, FailureBudget, FailurePanic, FailurePressure:
		return true
	}
	return false
}
