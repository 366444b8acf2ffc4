package dd

import (
	"context"
	"errors"
	"fmt"
	"os"
)

// Cooperative abort layer. The recursive Add/Mul kernels probe
// abortCheck on every recursion step; when any armed abort source fires
// the running operation panics with an *AbortError after invalidating
// the compute caches. Because nodes are hash-consed atomically
// (makeVNode/makeMNode complete before the next probe), the unique
// tables and arenas are consistent between any two probes, so an abort
// leaves the engine canonical and immediately reusable — callers
// recover the panic, classify it with AsAbort, and may keep simulating
// on the same engine (see core.RunContext).
//
// Three sources can be armed independently:
//
//   - SetContext: the run's context.Context. Its cancellation aborts
//     with AbortCanceled and its deadline (the paper's 2-CPU-hour
//     budget, core.Options.Deadline) with AbortDeadline.
//   - SetBudget: live-node budget fed by the unique-table occupancy;
//     the memory analogue of the deadline.
//   - InjectAbortAfter: fault injection for chaos tests, firing a
//     synthetic abort at an exact probe count (gated behind the
//     ddchaos build tag or DD_CHAOS=1).
//
// The memory-pressure signal (SetSoftBudget, see pressure.go) does not
// ride the probe: Pressure() reads the live counts when asked.

// AbortReason classifies why an engine operation aborted.
type AbortReason uint8

const (
	// AbortDeadline: the context set via SetContext passed its
	// deadline.
	AbortDeadline AbortReason = iota + 1
	// AbortCanceled: the context set via SetContext was canceled for
	// any other reason.
	AbortCanceled
	// AbortBudget: live nodes exceeded the budget set via SetBudget.
	AbortBudget
	// AbortInjected: a fault-injection probe armed via InjectAbortAfter.
	AbortInjected
)

// String returns the reason's short name.
func (r AbortReason) String() string {
	switch r {
	case AbortDeadline:
		return "deadline"
	case AbortCanceled:
		return "canceled"
	case AbortBudget:
		return "budget"
	case AbortInjected:
		return "injected"
	}
	return fmt.Sprintf("AbortReason(%d)", uint8(r))
}

// Sentinel errors carried by AbortError; match with errors.Is.
var (
	// ErrBudgetExceeded is carried when the live-node budget set via
	// SetBudget is exceeded mid-operation.
	ErrBudgetExceeded = errors.New("dd: engine node budget exceeded")
	// ErrInjectedAbort is carried by synthetic fault-injection aborts.
	ErrInjectedAbort = errors.New("dd: injected abort")
)

// AbortError is the panic value raised from an abort probe. It is a
// controlled unwind, not a bug: recover it, classify via Reason, and
// keep using the engine.
type AbortError struct {
	Reason AbortReason
	// Cause is the underlying error: one of the dd sentinel errors, or
	// the context's Err() for AbortDeadline and AbortCanceled.
	Cause error
	// Probes is the value of the engine's probe counter at the abort
	// site (useful for reproducing the abort point in chaos tests).
	Probes uint64
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("dd: operation aborted (%s): %v", e.Reason, e.Cause)
}

// Unwrap exposes the underlying sentinel for errors.Is.
func (e *AbortError) Unwrap() error { return e.Cause }

// AsAbort extracts an *AbortError from a recovered panic value.
func AsAbort(recovered any) (*AbortError, bool) {
	a, ok := recovered.(*AbortError)
	return a, ok
}

// SetContext arms cooperative cancellation: once ctx is done, the
// running operation aborts with reason AbortDeadline if ctx passed its
// deadline and AbortCanceled otherwise. A nil context disarms.
// Contexts that can never be done (Done() == nil) are ignored. The
// engine stays canonical and reusable after the abort.
func (e *Engine) SetContext(ctx context.Context) {
	e.ctx, e.done = nil, nil
	if ctx != nil && ctx.Done() != nil {
		e.ctx, e.done = ctx, ctx.Done()
	}
	e.rearm()
}

// SetBudget arms a live-node budget: when the combined occupancy of the
// vector and matrix unique tables exceeds maxNodes mid-operation, the
// operation aborts with reason AbortBudget. The check runs on every
// probe, so the budget is enforced to within a handful of nodes of the
// cap. Note that occupancy includes garbage not yet
// collected — pair a budget with garbage collection (core.Run couples
// its GC threshold to Options.MaxNodes). Zero or negative disarms.
func (e *Engine) SetBudget(maxNodes int) {
	if maxNodes < 0 {
		maxNodes = 0
	}
	e.budget = maxNodes
	e.rearm()
}

// Budget returns the armed live-node budget (0 when disarmed).
func (e *Engine) Budget() int { return e.budget }

// Probes returns the cumulative abort-probe count. Probes advance only
// while at least one abort source is armed; chaos tests use the count
// of a reference run to place injected aborts at exact kernel sites.
func (e *Engine) Probes() uint64 { return e.probes }

// InjectAbortAfter arms the fault-injection hook: the n-th abort probe
// from now (n ≥ 1) panics with an *AbortError of the given reason
// (AbortInjected for a plain synthetic abort; AbortDeadline /
// AbortBudget / AbortCanceled to rehearse those failure paths at an
// exact kernel site). The hook disarms itself after firing. Fault
// injection is compiled out of release builds: it is active only under
// the ddchaos build tag or with DD_CHAOS=1 in the environment, and the
// call reports whether it armed anything.
func (e *Engine) InjectAbortAfter(n uint64, reason AbortReason) bool {
	if !chaosEnabled() || n == 0 {
		return false
	}
	e.injectAt = e.probes + n
	e.injectReason = reason
	e.rearm()
	return true
}

// chaosEnabled reports whether fault injection may arm: compiled in via
// the ddchaos build tag, or opted in per-process via DD_CHAOS=1.
func chaosEnabled() bool {
	return chaosBuild || os.Getenv("DD_CHAOS") == "1"
}

// rearm recomputes the fast-path armed flag from the abort sources.
func (e *Engine) rearm() {
	e.armed = e.done != nil || e.budget > 0 || e.injectAt != 0
}

// abortProbeMask samples the context once per 256 probes; fault
// injection and the budget stay exact.
const abortProbeMask = 0xff

// abortCheck is probed from the hot recursion paths. The single armed
// flag keeps the disarmed cost to one branch.
func (e *Engine) abortCheck() {
	if !e.armed {
		return
	}
	e.probes++
	if e.injectAt != 0 && e.probes >= e.injectAt {
		reason := e.injectReason
		e.injectAt = 0
		e.rearm()
		e.abort(reason, injectCause(reason))
	}
	// The budget compare is two integer loads — cheap enough to run on
	// every probe, making enforcement exact at probe granularity.
	if e.budget > 0 && e.vUnique.live+e.mUnique.live > e.budget {
		e.abort(AbortBudget, ErrBudgetExceeded)
	}
	if e.done == nil || e.probes&abortProbeMask != 0 {
		return
	}
	select {
	case <-e.done:
		err := e.ctx.Err()
		if errors.Is(err, context.DeadlineExceeded) {
			e.abort(AbortDeadline, err)
		}
		e.abort(AbortCanceled, err)
	default:
	}
}

// abort invalidates the compute caches (a single generation bump, so no
// partially-relevant entry survives into the post-abort engine) and
// unwinds with a typed panic. The unique tables and arenas need no
// repair: every node visible to them was fully constructed.
func (e *Engine) abort(reason AbortReason, cause error) {
	e.stats.Aborts++
	e.clearCaches()
	panic(&AbortError{Reason: reason, Cause: cause, Probes: e.probes})
}

// injectCause maps an injected reason to the sentinel a real abort of
// that reason would carry, so chaos rehearsals exercise the same error
// paths.
func injectCause(reason AbortReason) error {
	switch reason {
	case AbortDeadline:
		return context.DeadlineExceeded
	case AbortBudget:
		return ErrBudgetExceeded
	case AbortCanceled:
		return context.Canceled
	default:
		return ErrInjectedAbort
	}
}
