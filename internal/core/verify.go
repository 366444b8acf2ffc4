package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/verify"
)

// Self-verification and bounded repair. With Options.VerifyEvery set,
// the runner periodically audits the engine (dd.Engine.Audit and the
// reachable-state audit), tracks state-norm drift, spot-checks the
// accumulated operation matrix for unitarity, and — in Paranoid mode —
// compares amplitudes against a dense lockstep oracle. On a failed
// check it does not give up immediately: the state is rebuilt into a
// fresh engine from the last verified snapshot (re-canonicalising every
// node and weight), the gates since the snapshot are replayed
// sequentially, and the run continues. Repairs are bounded; a state
// that fails verification even after a rebuild — or more than
// maxRepairs rebuilds per run — fails the run with FailureCorruption.

// maxRepairs bounds rebuild attempts per run: corruption that recurs
// after this many clean-engine replays is systematic (a logic bug or
// failing hardware), not transient, and hiding it behind endless
// repairs would be worse than failing loudly.
const maxRepairs = 4

// verifier holds the verification state of one run.
type verifier struct {
	every    int
	oracle   *verify.Lockstep // nil unless Paranoid
	lastSync int              // r.next value at the last verification pass

	// Last verified snapshot, held in a private engine the simulation
	// never touches so main-engine corruption cannot reach it.
	// snapOrder is the variable order the snapshot state is encoded in
	// (a copy; nil = identity) — a repair must restore it before
	// replaying, since sifting may have moved the live order since.
	snapEng   *dd.Engine
	snap      dd.VEdge
	snapGate  int
	snapOrder []int
	snapValid bool

	repairs  int
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
	v := &verifier{every: every, lastSync: opt.StartGate, snapGate: opt.StartGate}
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
// force is set, for the end-of-run pass). On a failed check it attempts
// a repair; the returned error is nil when the state is verified or
// successfully repaired.
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
	if ierr == nil {
		r.snapshot()
		return nil
	}
	return r.attemptRepair(check, ierr)
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

// snapshot records the (just verified) state as the repair baseline,
// rebuilt into the verifier's private engine. The private engine is
// reused across snapshots and garbage-collected down to the one live
// snapshot each time.
func (r *runner) snapshot() {
	if r.ver.snapEng == nil {
		r.ver.snapEng = dd.New()
	}
	r.ver.snap = r.ver.snapEng.CopyV(r.v)
	r.ver.snapGate = r.applied
	r.ver.snapOrder = append([]int(nil), r.order...)
	r.ver.snapValid = true
	r.ver.snapEng.GarbageCollect([]dd.VEdge{r.ver.snap}, nil)
}

// maybeRepairOnPanic routes kernel panics into the repair path when
// verification is enabled: a panic out of the arithmetic recursions
// (level mismatch, invariant violation) on a previously healthy engine
// is corruption evidence of the same kind an audit failure is. Without
// a verifier the error passes through unchanged. Returns nil when the
// run was repaired and may continue.
func (r *runner) maybeRepairOnPanic(err error) error {
	var re *RunError
	if r.ver == nil || !errors.As(err, &re) || re.Kind != FailurePanic {
		return err
	}
	if r.obs != nil {
		r.obs.verifyEv(r.applied, "panic")
	}
	return r.attemptRepair("panic", re.Err)
}

// attemptRepair is the bounded self-healing path: rebuild the state
// from the last verified snapshot into a fresh engine
// (re-canonicalisation discards whatever table damage the old engine
// carried), replay the gates between the snapshot and the last applied
// gate sequentially, re-verify, and resume. Any failure here — repair
// budget exhausted, no snapshot, replay abort, or a re-verification
// failure on the rebuilt state — ends the run with FailureCorruption.
func (r *runner) attemptRepair(check string, ierr error) error {
	corruption := func(cause error) *RunError {
		return &RunError{Kind: FailureCorruption, GateIndex: r.applied, Err: ErrCorruption, Cause: cause}
	}
	r.ver.repairs++
	if r.ver.repairs > maxRepairs {
		return corruption(fmt.Errorf("repair budget (%d) exhausted: %w", maxRepairs, ierr))
	}
	if !r.ver.snapValid {
		// No verified snapshot yet (corruption before the first pass) —
		// unless the run started from a caller-provided state, gate 0's
		// |0…0> start is trivially reconstructible.
		if r.opt.StartGate == 0 && r.opt.InitialState == nil {
			r.ver.snapEng = dd.New()
			r.ver.snap = r.ver.snapEng.ZeroState(r.c.NQubits)
			r.ver.snapGate = 0
			// |0…0> is permutation-symmetric, so the replay may start
			// from the run's initial order.
			r.ver.snapOrder = append([]int(nil), r.opt.InitialOrder...)
			r.ver.snapValid = true
		} else {
			return corruption(fmt.Errorf("no verified snapshot to rebuild from: %w", ierr))
		}
	}

	target := r.applied
	fresh := dd.New()
	rebuilt := fresh.CopyV(r.ver.snap)
	r.swapEngine(fresh)
	r.v = rebuilt
	r.applied = r.ver.snapGate
	r.accValid = false
	r.combined = 0
	// The snapshot is encoded in the order current at snapshot time;
	// sifting may have moved the live order since, so restore it (and
	// the qubit→level map the replay's gateDD reads).
	r.order = append([]int(nil), r.ver.snapOrder...)
	r.buildPos()
	r.siftBase = 0

	// Replay the in-flight gates one at a time — small gate DDs, no
	// accumulated matrix — so the rebuilt engine reaches the state the
	// corrupt one claimed to be at.
	for i := r.ver.snapGate; i < target; i++ {
		g := r.c.Gates[i]
		if err := r.guard(i, func() {
			r.applyOp(r.gateDD(g), i+1, 1, false, "", false)
		}); err != nil {
			return corruption(errors.Join(ierr, err))
		}
		r.maybeGC()
	}
	r.next = target
	if r.obs != nil {
		r.obs.repairEv(target, target-r.ver.snapGate, check)
	}

	// The rebuilt state must pass the full battery; failing again means
	// the corruption is not confined to the discarded engine.
	check2, ierr2, rerr := r.runChecks()
	if rerr != nil {
		return rerr
	}
	if r.obs != nil {
		r.obs.verifyEv(r.applied, check2)
	}
	if ierr2 != nil {
		return corruption(fmt.Errorf("state fails %s check even after rebuild: %w", check2, ierr2))
	}
	r.snapshot()
	return nil
}

// swapEngine retires the runner's engine for a fresh one: the old
// engine's counter contribution is folded into the carried totals, the
// abort sources move over, and the observer is re-pointed. Block
// matrices die with the old engine; runBlock notices the identity
// change and falls back to gate-at-a-time execution.
func (r *runner) swapEngine(fresh *dd.Engine) {
	old := r.eng
	oldStats := old.Stats()
	r.carried = r.carried.Add(oldStats.Sub(r.statsBase))
	r.statsBase = dd.Stats{}

	old.SetDeadline(time.Time{})
	old.SetBudget(0)
	old.SetContext(nil)
	fresh.SetDeadline(r.opt.Deadline)
	fresh.SetBudget(r.opt.MaxNodes)
	fresh.SetContext(r.ctx)
	fresh.SetIdentitySkip(!r.opt.DisableIdentitySkip)
	if r.gov.ladderArmed() {
		old.SetSoftBudget(0, dd.Watermarks{})
		fresh.SetSoftBudget(r.opt.SoftBudget, pressureMarks)
	}
	if r.obs != nil {
		old.SetObserver(nil)
		r.obs.engineSwapped(fresh)
		fresh.SetObserver(r.obs)
	}
	r.eng = fresh
	r.blockMats = nil
	r.stateSz = -1
}
