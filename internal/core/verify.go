package core

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/verify"
)

// Self-verification. With Options.VerifyEvery set, the runner
// periodically audits the engine (dd.Engine.Audit and the
// reachable-state audit), tracks state-norm drift, spot-checks the
// accumulated operation matrix for unitarity, and — in Paranoid mode —
// compares amplitudes against a dense lockstep oracle. A failed check
// ends the run with FailureCorruption. Every checkpoint a verified run
// writes follows a clean pass on the state it records, so the last one
// is the run's resume point.

// verifier holds the verification state of one run.
type verifier struct {
	every    int
	oracle   *verify.Lockstep // nil unless Paranoid
	lastSync int              // r.next value at the last verification pass
	maxDrift float64
}

// newVerifier builds the run's verifier, or nil when verification is
// disabled. Returns a configuration error when Paranoid is requested
// beyond the dense oracle's qubit range.
func newVerifier(c *circuit.Circuit, opt Options) (*verifier, error) {
	every := opt.VerifyEvery
	if opt.Paranoid && every <= 0 {
		every = 1
	}
	if every <= 0 {
		return nil, nil
	}
	v := &verifier{every: every, lastSync: opt.StartGate}
	if opt.Paranoid {
		if c.NQubits > verify.MaxOracleQubits {
			return nil, fmt.Errorf("core: Paranoid dense oracle supports at most %d qubits, circuit has %d",
				verify.MaxOracleQubits, c.NQubits)
		}
		var initial []complex128
		if opt.InitialState != nil {
			// The caller's state is encoded in InitialOrder; the oracle
			// wants circuit-ordered amplitudes.
			initial = dd.VectorInOrder(*opt.InitialState, opt.InitialOrder)
		}
		oracle, err := verify.NewLockstep(c, opt.StartGate, initial)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		v.oracle = oracle
	}
	return v, nil
}

// maybeVerify runs a verification pass when the cadence is due (or
// force is set, for the end-of-run pass and before a checkpoint).
func (r *runner) maybeVerify(force bool) error {
	if r.ver == nil {
		return nil
	}
	if !force && r.next-r.ver.lastSync < r.ver.every {
		return nil
	}
	r.ver.lastSync = r.next
	check, ierr, rerr := r.runChecks()
	if rerr != nil {
		return rerr // genuine abort (deadline/budget/cancel) mid-check
	}
	if r.obs != nil {
		r.obs.verifyEv(r.applied, check)
	}
	if ierr != nil {
		return &RunError{Kind: FailureCorruption, GateIndex: r.applied, Err: ErrCorruption, Cause: ierr}
	}
	return nil
}

// runChecks runs the verification battery against the current state.
// It returns the name of the failing check and its error (both empty on
// a clean pass), or a *RunError when a real abort source fired during
// the — potentially expensive — checks. Panics out of the checks (e.g.
// a level-mismatch panic from multiplying a structurally corrupt
// matrix) are themselves treated as detection, not as run failures.
func (r *runner) runChecks() (check string, ierr error, rerr *RunError) {
	gerr := r.guard(r.applied, func() {
		if err := r.eng.Audit(); err != nil {
			check, ierr = "audit", err
			return
		}
		if err := r.eng.AuditV(r.v); err != nil {
			check, ierr = "audit", err
			return
		}
		drift, err := dd.CheckNorm(r.v, 0)
		if drift > r.ver.maxDrift {
			r.ver.maxDrift = drift
		}
		if err != nil {
			check, ierr = "norm", err
			return
		}
		if r.accValid && r.combined > 1 {
			if err := r.eng.AuditM(r.acc); err != nil {
				check, ierr = "audit", err
				return
			}
			if err := r.eng.CheckUnitary(r.acc, 0); err != nil {
				check, ierr = "unitarity", err
				return
			}
		}
		if r.ver.oracle != nil {
			if err := r.ver.oracle.Advance(r.applied); err != nil {
				check, ierr = "oracle", err
				return
			}
			if err := r.ver.oracle.CheckOrdered(r.v, r.order); err != nil {
				check, ierr = "oracle", err
				return
			}
		}
	})
	if gerr != nil {
		if gerr.Kind != FailurePanic {
			return "", nil, gerr
		}
		check, ierr = "audit", gerr.Err
	}
	return check, ierr, nil
}
