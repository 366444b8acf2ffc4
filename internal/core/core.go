// Package core implements the paper's contribution: DD-based
// Schrödinger simulation with pluggable strategies that trade
// matrix-matrix against matrix-vector multiplications.
//
// The baseline ("sequential", the state of the art the paper improves
// on) applies one gate matrix to the state per step — Eq. 1. The
// combination strategies of Section IV-A absorb runs of gates into an
// accumulated operation matrix first (matrix-matrix multiplications on
// small DDs) and touch the — typically much larger — state DD only when
// the strategy decides to flush:
//
//   - KOperations flushes after every k absorbed gates.
//   - MaxSize flushes once the accumulated matrix DD exceeds s_max nodes.
//
// Section IV-B's knowledge-exploiting strategies are also here:
//
//   - Repeated blocks (DD-repeating): a circuit Block's body is combined
//     into a single matrix once and re-used for every further iteration
//     without any additional matrix-matrix multiplication.
//   - Direct construction (DD-construct) is provided by the shor package
//     on top of dd.FromPermutation; see internal/shor.
//
// Runs are resilient (see DESIGN.md "Resilience"): RunContext supports
// cooperative cancellation, wall-clock deadlines and live-node budgets,
// every engine panic is recovered into a typed *RunError, a combination
// that trips the node budget is replayed gate by gate (a rung of the
// degradation ladder in governor.go), and checkpoints allow aborted
// runs to be resumed.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Strategy decides when the accumulated operation matrix is applied to
// the state vector. After each gate is absorbed, ShouldApply is called
// with the number of gates combined so far and lazily evaluated node
// counts of the accumulated operation DD and the current state DD.
type Strategy interface {
	Name() string
	ShouldApply(combined int, opSize, stateSize func() int) bool
}

// Sequential is the state-of-the-art baseline: every gate is applied to
// the state immediately (pure matrix-vector simulation, Eq. 1).
type Sequential struct{}

// Name implements Strategy.
func (Sequential) Name() string { return "sequential" }

// ShouldApply implements Strategy: always flush.
func (Sequential) ShouldApply(int, func() int, func() int) bool { return true }

// KOperations combines runs of K gates via matrix-matrix multiplication
// before each matrix-vector step (strategy "k-operations", Sec. IV-A).
type KOperations struct {
	K int
}

// Name implements Strategy.
func (s KOperations) Name() string { return fmt.Sprintf("k-operations(k=%d)", s.K) }

// ShouldApply implements Strategy.
func (s KOperations) ShouldApply(combined int, _, _ func() int) bool {
	return combined >= s.K
}

// MaxSize combines gates until the accumulated matrix DD exceeds SMax
// nodes (strategy "max-size", Sec. IV-A). Parameterisation is by DD
// size, not gate count, so cheap runs are combined further and expensive
// ones flushed early.
type MaxSize struct {
	SMax int
}

// Name implements Strategy.
func (s MaxSize) Name() string { return fmt.Sprintf("max-size(s=%d)", s.SMax) }

// ShouldApply implements Strategy.
func (s MaxSize) ShouldApply(_ int, opSize, _ func() int) bool {
	return opSize() > s.SMax
}

// CombineAll never flushes until the end of the circuit — the extreme
// case of completely following Eq. 2, which the paper shows is *not* a
// good idea. Included for the ablation benchmarks.
type CombineAll struct{}

// Name implements Strategy.
func (CombineAll) Name() string { return "combine-all" }

// ShouldApply implements Strategy.
func (CombineAll) ShouldApply(int, func() int, func() int) bool { return false }

// Options configures a simulation run.
type Options struct {
	// Strategy defaults to Sequential{}.
	Strategy Strategy
	// UseBlocks enables the DD-repeating treatment of circuit Blocks:
	// each block body is combined into one matrix and re-used across all
	// repetitions.
	UseBlocks bool
	// RecordTrace records the DD sizes of the state after every
	// matrix-vector step and of every applied operation matrix (used for
	// the Fig. 5 style size traces). Costs O(size) per step.
	RecordTrace bool
	// Deadline aborts the run once the wall clock passes it. RunContext
	// folds it into the run's context, which is probed both between
	// multiplications and inside them. The zero value means no
	// deadline. This mirrors the paper's 2-CPU-hour timeout for the
	// t_sota columns. The run then returns a *RunError wrapping
	// ErrDeadlineExceeded, as it does when the caller's context passes
	// its own deadline.
	Deadline time.Time
	// MaxNodes arms the engine's live-node budget: when unique-table
	// occupancy exceeds it mid-operation, the operation aborts. Unless
	// Degrade is "off", an abort inside a combination, a flush or a
	// block is then replayed gate by gate (a "replay" entry in
	// Result.Degradations; see governor.go); if the budget cannot be
	// met even sequentially, the run returns a *RunError wrapping
	// ErrBudgetExceeded. Zero means unlimited.
	MaxNodes int
	// StartGate resumes a run at this gate index: gates before it are
	// assumed to be reflected in InitialState (see Checkpoint). Zero
	// starts from the beginning.
	StartGate int
	// InitialState overrides the |0…0> start state.
	InitialState *dd.VEdge
	// Engine re-uses an existing engine (otherwise a fresh one is
	// created per run).
	Engine *dd.Engine
	// OnCheckpoint, when set, receives resume checkpoints: periodically
	// every CheckpointEvery applied gates, and always before Run returns
	// an abort error. The callback must serialise the checkpoint before
	// returning (its State belongs to the running engine); an error from
	// the callback fails the run.
	OnCheckpoint func(*Checkpoint) error
	// CheckpointEvery is the minimum number of applied gates between
	// periodic checkpoints (0 = checkpoint only on abort).
	CheckpointEvery int
	// Seed is recorded in checkpoints so resumed runs can reproduce
	// downstream sampling. It does not influence the simulation itself.
	Seed int64
	// EventSink, when set, receives the run's structured event stream
	// (run_start, one step per applied operation, gc / pressure /
	// checkpoint / abort, run_end); see internal/obs. Like RecordTrace
	// it costs O(state size) per applied step for the size traversals.
	// The engine's observer slot is claimed for the duration of the run.
	EventSink obs.Sink
	// Metrics, when set, records run telemetry (step latencies,
	// node-size distributions, multiplication / cache / GC counters)
	// into the registry. Sharing one registry across runs aggregates.
	Metrics *obs.Registry
	// VerifyEvery enables integrity verification every N absorbed gates
	// (plus a final pass, and a pass before every checkpoint): engine
	// audit, state audit with node paths, norm-drift tracking, and a
	// unitarity spot-check of the accumulated operation matrix. A failed
	// check fails the run with a *RunError wrapping ErrCorruption; the
	// last checkpoint the run wrote passed the battery and is its
	// resume point. Zero disables verification; the hot path then
	// carries no verification cost at all.
	VerifyEvery int
	// Paranoid additionally runs a dense lockstep oracle and compares
	// amplitudes at every verification pass. Limited to small circuits
	// (dense simulation is exactly what does not scale); implies
	// VerifyEvery=1 unless set explicitly.
	Paranoid bool
	// DisableIdentitySkip turns off the engine's identity short-circuits
	// in the multiplication kernels (dd.Engine.SetIdentitySkip). Results
	// are identical either way; the switch exists for differential
	// testing and for measuring the optimisation (Stats.IdentitySkips*).
	DisableIdentitySkip bool
	// Reorder selects dynamic variable reordering: "" or "off" for the
	// fixed identity order, "static" to derive a circuit-preprocessing
	// order from the qubit-interaction graph (sched.StaticOrder; only
	// for fresh runs — when InitialOrder, InitialState or StartGate
	// already pin the order, the derivation is skipped), or "sifting"
	// for in-run sifting at flush boundaries, triggered once the state
	// DD has doubled since the last pass (and holds at least 256
	// nodes). Gates are mapped through the live permutation before
	// GateDD, so the circuit itself is never rewritten.
	Reorder string
	// InitialOrder sets the starting DD variable order: order[level] =
	// circuit qubit, a permutation of [0, NQubits). Nil means identity.
	// When InitialState is set it must already be encoded in this order
	// (checkpoints record the order for exactly this reason). The slice
	// is copied.
	InitialOrder []int
	// SoftBudget arms the memory-pressure governor (see governor.go and
	// DESIGN.md §15): live-node occupancy is banded against the
	// 70/85/95 % watermarks of this target, and at flush
	// boundaries the run walks a staged degradation ladder — emergency
	// GC, flush-and-pin-sequential, sifting, optional approximation,
	// checkpoint-then-park — instead of running into the MaxNodes
	// cliff. Zero disables the governor unless Degrade selects a mode
	// (SoftBudget then defaults to MaxNodes). Must not exceed MaxNodes
	// when both are set.
	SoftBudget int
	// Degrade selects the governor's ladder mode: "" (budget-abort
	// replay only, unless SoftBudget is set — that implies "ladder"),
	// "off" (no replay either: a budget abort fails the run), "ladder"
	// (exact rungs only: GC, flush+pin or replay, sift, park), or
	// "approx" (additionally rung 4: fidelity-bounded state
	// approximation via dd.Engine.Approximate, with the cumulative
	// bound recorded in Result.FidelityBound).
	Degrade string
	// ApproxNodes is rung 4's state-DD node target (only meaningful
	// with Degrade "approx"). Zero selects SoftBudget/4, floored at the
	// qubit count; explicit values below the qubit count are a
	// ConfigError, mirroring the dd.Engine.Approximate precondition.
	ApproxNodes int
	// OnPressure, when set, receives every Degradation the governor
	// journals, as it happens — a lightweight pressure feed for serving
	// layers that do not want a full event stream. Called on the run's
	// goroutine.
	OnPressure func(Degradation)
}

// gcLiveThreshold is the live-node count above which the engine is
// garbage collected between steps. When MaxNodes or SoftBudget is set,
// the effective threshold is clamped to 3/4 of the tighter of the two
// (see gcThreshold). A variable only so in-package tests can collect
// earlier.
var gcLiveThreshold = 200_000

// Sentinel errors wrapped by *RunError; match with errors.Is.
var (
	// ErrDeadlineExceeded reports that a simulation hit Options.Deadline.
	ErrDeadlineExceeded = errors.New("core: simulation deadline exceeded")
	// ErrBudgetExceeded reports that a simulation could not stay under
	// Options.MaxNodes (even by replaying gate by gate, unless Degrade
	// is "off").
	ErrBudgetExceeded = errors.New("core: simulation node budget exceeded")
	// ErrCanceled reports that the RunContext context was canceled.
	ErrCanceled = errors.New("core: simulation canceled")
	// ErrInjectedAbort reports a synthetic fault-injection abort.
	ErrInjectedAbort = errors.New("core: injected abort")
	// ErrCorruption reports that integrity verification detected state
	// or engine corruption.
	ErrCorruption = errors.New("core: state corruption detected")
	// ErrPressure reports that the memory-pressure governor exhausted
	// its degradation ladder and parked the run (checkpoint written
	// when Options.OnCheckpoint is set; see Options.SoftBudget).
	ErrPressure = errors.New("core: simulation parked under memory pressure")
)

// FailureKind classifies a *RunError.
type FailureKind uint8

const (
	// FailureDeadline: the run's context passed its deadline —
	// Options.Deadline or the caller's own.
	FailureDeadline FailureKind = iota + 1
	// FailureCanceled: the context passed to RunContext was canceled
	// before any deadline.
	FailureCanceled
	// FailureBudget: Options.MaxNodes was exceeded without recourse.
	FailureBudget
	// FailureInjected: a fault-injection abort (chaos testing).
	FailureInjected
	// FailurePanic: a panic escaped the engine (or a strategy callback)
	// and was recovered into a typed error.
	FailurePanic
	// FailureCorruption: integrity verification (Options.VerifyEvery /
	// Paranoid) detected corruption.
	FailureCorruption
	// FailurePressure: the memory-pressure governor exhausted its
	// degradation ladder and parked the run behind a checkpoint instead
	// of letting it trip the hard budget. Unlike FailureBudget the
	// state was checkpointed at a consistent boundary; retrying under a
	// quieter budget resumes it (see Retryable).
	FailurePressure
)

// String returns the kind's short name (also used for CLI exit-status
// mapping and bench CSV marks).
func (k FailureKind) String() string {
	switch k {
	case FailureDeadline:
		return "deadline"
	case FailureCanceled:
		return "canceled"
	case FailureBudget:
		return "budget"
	case FailureInjected:
		return "injected"
	case FailurePanic:
		return "panic"
	case FailureCorruption:
		return "corruption"
	case FailurePressure:
		return "pressure"
	}
	return fmt.Sprintf("FailureKind(%d)", uint8(k))
}

// RunError is the typed error a simulation returns when it aborts (by
// deadline, cancellation, node budget or fault injection) or when a
// panic is recovered from the engine. Runs that return a *RunError also
// return a partial *Result carrying the last consistent state and the
// progress counters for reporting.
type RunError struct {
	Kind FailureKind
	// GateIndex is the gate being processed when the run stopped.
	GateIndex int
	// Err is the matching sentinel (ErrDeadlineExceeded, ErrCanceled,
	// ErrBudgetExceeded, ErrInjectedAbort) or, for FailurePanic, an
	// error describing the recovered panic.
	Err error
	// Cause carries underlying detail where available (e.g. the
	// context's error for FailureDeadline and FailureCanceled, or the
	// engine's abort error, which wraps it).
	Cause error
}

// Error implements error.
func (e *RunError) Error() string {
	return fmt.Sprintf("core: run aborted (%s) at gate %d: %v", e.Kind, e.GateIndex, e.Err)
}

// Unwrap exposes the sentinel and the cause for errors.Is / errors.As.
func (e *RunError) Unwrap() []error {
	if e.Cause != nil {
		return []error{e.Err, e.Cause}
	}
	return []error{e.Err}
}

// TracePoint is one recorded simulation step.
type TracePoint struct {
	GateIndex  int // index one past the last gate included in this step
	OpSize     int // nodes of the applied operation matrix DD
	StateSize  int // nodes of the state DD after the step
	Combined   int // gates combined into the applied matrix
	FromBlock  bool
	BlockName  string
	BlockReuse bool // true when the matrix was re-used, not re-built
}

// Result is the outcome of a simulation run.
type Result struct {
	State    dd.VEdge
	Engine   *dd.Engine
	Stats    dd.Stats
	Duration time.Duration
	// MatVecSteps and MatMatSteps are the top-level multiplication
	// counts of this run (not cumulated across engine re-use).
	MatVecSteps int
	MatMatSteps int
	// GatesApplied is the gate index through which State reflects the
	// circuit (equals len(c.Gates) on success; less after an abort).
	GatesApplied int
	// NormDrift is the largest |norm − 1| the verification passes
	// observed (zero when verification was disabled).
	NormDrift float64
	// Order is the final DD variable order (order[level] = circuit
	// qubit; nil means identity). State is encoded in this order —
	// amplitude extraction and sampling must map indices through it
	// (dd.VectorInOrder / dd.IndexFromDD).
	Order []int
	Trace []TracePoint
	// Degradations journals every action of the degradation ladder, in
	// order: the governor's pressure rungs (Options.SoftBudget) and the
	// replays of budget-tripped gate runs (Options.MaxNodes). Empty
	// when neither engaged.
	Degradations []Degradation
	// FidelityBound is the guaranteed lower bound on the fidelity
	// |⟨state|exact⟩|² after governor approximations: the product of
	// the per-cut fidelities (exact for a single cut; the standard
	// composition estimate for several). 1 for exact runs.
	FidelityBound float64
}

// Run simulates circuit c from |0…0> (or Options.InitialState) and
// returns the final state vector as a DD. See RunContext for the
// error/partial-result contract.
func Run(c *circuit.Circuit, opt Options) (*Result, error) {
	return RunContext(context.Background(), c, opt)
}

// RunContext simulates c under opt with cooperative cancellation: when
// ctx is canceled the run aborts — including from inside a long
// multiplication — and returns a *RunError wrapping ErrCanceled. The
// run's only clock is its context: Options.Deadline is folded into ctx,
// and a ctx that passes its deadline, whichever set it, returns a
// *RunError wrapping ErrDeadlineExceeded.
//
// Error contract: configuration errors (nil circuit, invalid options)
// return (nil, err). Aborted runs — deadline, cancellation, budget,
// injected fault, or a recovered engine panic — return a partial
// *Result (last consistent state, progress counters, statistics)
// together with a *RunError.
func RunContext(ctx context.Context, c *circuit.Circuit, opt Options) (*Result, error) {
	if c == nil {
		return nil, errors.New("core: nil circuit")
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opt.Strategy == nil {
		opt.Strategy = Sequential{}
	}
	if err := validateStrategy(opt.Strategy); err != nil {
		return nil, err
	}
	if opt.StartGate < 0 || opt.StartGate > len(c.Gates) {
		return nil, fmt.Errorf("core: StartGate %d out of range for %d gates", opt.StartGate, len(c.Gates))
	}
	switch opt.Reorder {
	case "", "off", "static", "sifting":
	default:
		return nil, fmt.Errorf("core: unknown Reorder mode %q (want off, static or sifting)", opt.Reorder)
	}
	if err := normalizeGovernor(&opt, c.NQubits); err != nil {
		return nil, err
	}
	var order []int
	if opt.InitialOrder != nil {
		if len(opt.InitialOrder) != c.NQubits || !dd.IsPermutation(opt.InitialOrder) {
			return nil, fmt.Errorf("core: InitialOrder %v is not a permutation of [0,%d)", opt.InitialOrder, c.NQubits)
		}
		order = append([]int(nil), opt.InitialOrder...)
	} else if opt.Reorder == "static" && opt.InitialState == nil && opt.StartGate == 0 {
		order = sched.StaticOrder(c)
	}
	if identityOrder(order) {
		order = nil // keep the identity fast paths
	}
	// Everything downstream (verifier bootstrap, checkpoints) reads the
	// resolved start order from the options copy.
	opt.InitialOrder = order
	eng := opt.Engine
	if eng == nil {
		eng = dd.New()
	}
	// The planner hands the run to the fixed rule its locality band
	// picks; every other strategy is its own rule.
	rule, ruleName := opt.Strategy, ""
	if p, ok := opt.Strategy.(Planner); ok {
		rule, ruleName = p.rule(c)
	}

	start := time.Now()
	statsBefore := eng.Stats()

	v := eng.ZeroState(c.NQubits)
	if opt.InitialState != nil {
		v = *opt.InitialState
		if v.Qubits() != c.NQubits {
			return nil, fmt.Errorf("core: initial state spans %d qubits, circuit has %d", v.Qubits(), c.NQubits)
		}
	}

	if ctx == nil {
		ctx = context.Background()
	}
	if !opt.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opt.Deadline)
		defer cancel()
	}
	ver, verr := newVerifier(c, opt)
	if verr != nil {
		return nil, verr
	}
	ro := newRunObserver(opt, eng)
	r := &runner{
		eng:      eng,
		c:        c,
		opt:      opt,
		rule:     rule,
		ctx:      ctx,
		obs:      ro,
		ver:      ver,
		v:        v,
		next:     opt.StartGate,
		applied:  opt.StartGate,
		lastCkpt: opt.StartGate,
		stateSz:  -1,
		order:    order,
	}
	r.buildPos()
	r.gov = newGovernor(r)
	if r.gov.ladderArmed() {
		eng.SetSoftBudget(opt.SoftBudget, pressureMarks)
	}
	if ro != nil {
		eng.SetObserver(ro)
		defer func() { r.eng.SetObserver(nil) }()
		ro.runStart(c, opt.StartGate)
		if ruleName != "" {
			ro.plannerEv(opt.StartGate, ruleName)
		}
	}
	// Arm the engine-level abort layer too: a single multiplication on
	// huge diagrams can outlive many per-gate checks.
	eng.SetBudget(opt.MaxNodes)
	eng.SetContext(ctx)
	eng.SetIdentitySkip(!opt.DisableIdentitySkip)
	defer disarm(eng)
	err := r.runRecovering()
	if err != nil && opt.OnCheckpoint != nil {
		var re *RunError
		if errors.As(err, &re) && r.abortCheckpointClean(re) {
			if cerr := opt.OnCheckpoint(r.checkpoint()); cerr != nil {
				err = errors.Join(err, fmt.Errorf("%w: abort checkpoint: %w", ErrCheckpointWrite, cerr))
			} else if ro != nil {
				ro.checkpointEv(r.applied)
			}
		}
	}

	stats := eng.Stats()
	runDelta := stats.Sub(statsBefore)
	res := &Result{
		State:         r.v,
		Engine:        eng,
		Stats:         stats,
		Duration:      time.Since(start),
		MatVecSteps:   int(runDelta.MatVecMuls),
		MatMatSteps:   int(runDelta.MatMatMuls),
		GatesApplied:  r.applied,
		Order:         append([]int(nil), r.order...),
		Degradations:  r.gov.journal,
		FidelityBound: r.gov.fidelity,
	}
	if ver != nil {
		res.NormDrift = ver.maxDrift
	}
	if ro != nil {
		res.Trace = ro.trace
		sz := r.stateSz
		if sz < 0 {
			sz = eng.SizeV(r.v)
		}
		ro.finish(r.applied, sz, len(res.Degradations), res.FidelityBound, runDelta, err)
	}
	if err != nil {
		return res, err
	}
	return res, nil
}

// runner holds the mutable state of one simulation.
type runner struct {
	eng *dd.Engine
	c   *circuit.Circuit
	opt Options
	// rule decides the flushes: opt.Strategy, or the fixed rule the
	// planner picked for this run.
	rule Strategy
	ctx  context.Context
	// obs is the run's observability bridge (nil unless the run asked
	// for events, metrics or a trace); it owns the TracePoint recording.
	obs  *runObserver
	v    dd.VEdge
	next int // index of the next gate to absorb

	// acc is the accumulated operation matrix; it covers the gates
	// [applied, next) when accValid.
	acc      dd.MEdge
	accValid bool
	combined int
	// applied is the gate index through which v reflects the circuit.
	applied int
	// stateSz caches the state DD's node count between flushes (-1 =
	// unknown); it only changes when an operation is applied.
	stateSz int

	lastCkpt int

	// order is the live DD variable order (order[level] = circuit
	// qubit; nil = identity), pos its inverse (pos[qubit] = level).
	// Gates are mapped through pos at absorption, so the circuit is
	// never rewritten. siftBase is the post-sift baseline size the
	// growth trigger compares against (0 = unset). ctlScratch is
	// gateDD's reusable control-mapping buffer.
	order      []int
	pos        []int
	siftBase   int
	ctlScratch []dd.Control

	// blockMat keeps combined block matrices alive across GC.
	blockMats []dd.MEdge

	// gov is the degradation ladder (budget-abort replay, plus the
	// pressure rungs when Options.SoftBudget/Degrade arm them); see
	// governor.go.
	gov *governor

	// ver is the integrity-verification state (nil unless the run asked
	// for VerifyEvery/Paranoid); see verify.go.
	ver *verifier
}

// runRecovering is the outermost backstop: any panic not already
// converted by an op-level guard (e.g. from a strategy callback or a
// size traversal) is recovered into a *RunError instead of crashing the
// caller.
func (r *runner) runRecovering() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = r.errFromPanic(rec, r.next)
		}
	}()
	return r.run()
}

func (r *runner) run() error {
	blocks := r.blockIndex()
	for r.next < len(r.c.Gates) {
		if err := r.checkAbort(); err != nil {
			return err
		}
		// A replay pins the loop to one gate per step until the tripped
		// run is re-applied, so it never re-enters a block.
		if b, ok := blocks[r.next]; ok && r.opt.UseBlocks && !r.gov.replaying() {
			if err := r.flush(r.next); err != nil {
				if err = r.continueAfter(err); err != nil {
					return err
				}
				continue
			}
			if err := r.runBlock(b); err != nil {
				if err = r.continueAfter(err); err != nil {
					return err
				}
			}
			continue
		}
		if err := r.absorbNext(); err != nil {
			if err = r.continueAfter(err); err != nil {
				return err
			}
			continue
		}
		opSz := -1
		opSize := func() int {
			if opSz < 0 {
				opSz = r.eng.SizeM(r.acc)
			}
			return opSz
		}
		if r.accValid && (r.gov.pinned() || r.rule.ShouldApply(r.combined, opSize, r.stateSize)) {
			if err := r.flush(r.next); err != nil {
				if err = r.continueAfter(err); err != nil {
					return err
				}
				continue
			}
			// Reorder only at flush boundaries: the accumulator is
			// invalid here, so no combined matrix can go stale against
			// the new order.
			if err := r.maybeReorder(); err != nil {
				if err = r.continueAfter(err); err != nil {
					return err
				}
				continue
			}
		}
		r.maybeGC()
		if err := r.maybeGovern(); err != nil {
			if err = r.continueAfter(err); err != nil {
				return err
			}
			continue
		}
		if err := r.maybeCheckpoint(); err != nil {
			return err
		}
		if err := r.maybeVerify(false); err != nil {
			return err
		}
	}
	if err := r.flush(len(r.c.Gates)); err != nil {
		if err = r.continueAfter(err); err != nil {
			return err
		}
		// A replay rewound to the last applied gate; the final flush
		// target may still be ahead, so re-run the tail.
		if r.next < len(r.c.Gates) {
			return r.run()
		}
	}
	return r.maybeVerify(true)
}

// continueAfter decides whether the main loop may go on after a step
// failed: a scheduled replay resumes at the rewound gate. Every other
// error is final.
func (r *runner) continueAfter(err error) error {
	if errors.Is(err, errReplay) {
		return nil
	}
	return err
}

// stateSize returns the state DD's node count, cached until the next
// applied operation.
func (r *runner) stateSize() int {
	if r.stateSz < 0 {
		r.stateSz = r.eng.SizeV(r.v)
	}
	return r.stateSz
}

// live is the combined live-node count of both unique tables.
func (r *runner) live() int { return r.eng.VNodeCount() + r.eng.MNodeCount() }

// absorbNext multiplies the next gate onto the accumulated operation
// matrix. A budget abort mid-product schedules a replay of the gates
// the accumulator covered, this one included.
func (r *runner) absorbNext() error {
	i := r.next
	err := r.guard(i, func() {
		gd := r.gateDD(r.c.Gates[i])
		if r.accValid {
			r.acc = r.eng.MulMat(gd, r.acc)
			r.combined++
		} else {
			r.acc = gd
			r.accValid = true
			r.combined = 1
		}
	})
	if err == nil {
		r.next++
		return nil
	}
	return r.replay(err, i+1)
}

// flush applies the accumulated matrix (if any) to the state; a budget
// abort schedules a replay of the gates it covered.
func (r *runner) flush(gateIndex int) error {
	if !r.accValid {
		return nil
	}
	op, combined := r.acc, r.combined
	err := r.guard(gateIndex, func() {
		r.applyOp(op, gateIndex, combined, false, "", false)
	})
	if err == nil {
		r.accValid = false
		r.combined = 0
		return nil
	}
	return r.replay(err, gateIndex)
}

// gateDD builds one gate's matrix DD with its qubits mapped through
// the live variable order (identity when no reorder is active). The
// control buffer is reused across calls, keeping the mapped path
// allocation-free in steady state.
func (r *runner) gateDD(g circuit.Gate) dd.MEdge {
	if r.order == nil {
		return r.eng.GateDD(g.Matrix, r.c.NQubits, g.Target, g.Controls)
	}
	ctl := r.ctlScratch[:0]
	for _, c := range g.Controls {
		ctl = append(ctl, dd.Control{Qubit: r.pos[c.Qubit], Negative: c.Negative})
	}
	r.ctlScratch = ctl
	return r.eng.GateDD(g.Matrix, r.c.NQubits, r.pos[g.Target], ctl)
}

// buildPos refreshes the qubit→level inverse of r.order.
func (r *runner) buildPos() {
	if r.order == nil {
		r.pos = nil
		return
	}
	if cap(r.pos) < len(r.order) {
		r.pos = make([]int, len(r.order))
	}
	r.pos = r.pos[:len(r.order)]
	for l, q := range r.order {
		r.pos[q] = l
	}
}

// identityOrder reports whether order is nil or the identity map.
func identityOrder(order []int) bool {
	for l, q := range order {
		if l != q {
			return false
		}
	}
	return true
}

// Sifting trigger of Options.Reorder "sifting": a pass runs once the
// state DD has grown siftGrowth-fold over the post-sift baseline and
// holds at least siftMinNodes nodes. Variables, not constants, only so
// tests can force a pass at every flush (export_test.go).
var (
	siftGrowth   = 2.0
	siftMinNodes = 256
)

// maybeReorder runs one sifting pass when the state DD has outgrown
// the post-sift baseline. Called only at flush boundaries (the
// accumulator is invalid), so combined operation matrices never go
// stale against the new order; never during a replay, which must
// re-apply exactly the gates that tripped the budget.
func (r *runner) maybeReorder() error {
	if r.opt.Reorder != "sifting" || r.accValid || r.gov.replaying() {
		return nil
	}
	sz := r.stateSize()
	if sz < siftMinNodes {
		r.siftBase = 0
		return nil
	}
	if r.siftBase == 0 {
		r.siftBase = sz
	}
	if float64(sz) < siftGrowth*float64(r.siftBase) || !r.siftHeadroom() {
		return nil
	}
	return r.sift()
}

// siftHeadroom reports whether a sifting pass fits the hard budget:
// sifting under a nearly exhausted budget would spend the remaining
// headroom on intermediate diagrams and abort the run over a remedy.
func (r *runner) siftHeadroom() bool {
	return r.opt.MaxNodes <= 0 || r.live()*2 <= r.opt.MaxNodes
}

// sift runs one sifting pass over the state DD — for the Reorder
// trigger and for the governor's rung 3 alike — and adopts the order it
// finds. A pass swaps at most 8·n² times. A cooperative abort inside
// sifting (the swap primitive probes the deadline/budget/cancellation
// layer on every swap) leaves r.v and r.order untouched, since SiftV
// works on a scratch copy of the order, and surfaces through the usual
// guard.
func (r *runner) sift() error {
	n := r.c.NQubits
	order := r.order
	if order == nil {
		order = dd.IdentityOrder(n)
	} else {
		order = append([]int(nil), order...)
	}
	var (
		sifted dd.VEdge
		sres   dd.SiftResult
	)
	if err := r.guard(r.next, func() {
		sifted, sres = r.eng.SiftV(r.v, order, 8*n*n)
	}); err != nil {
		return err
	}
	r.v = sifted
	r.order = order
	r.buildPos()
	r.stateSz = sres.After
	r.siftBase = sres.After
	// Drop the intermediate diagrams sifting interned.
	r.collect()
	if r.obs != nil {
		r.obs.reorderEv(r.applied, sres)
	}
	return nil
}

func (r *runner) applyOp(op dd.MEdge, gateIndex, combined int, fromBlock bool, blockName string, reuse bool) {
	var start time.Time
	if r.obs != nil {
		start = time.Now()
	}
	r.v = r.eng.MulVec(op, r.v)
	r.stateSz = -1
	r.applied = gateIndex
	opSz := r.eng.SizeM(op)
	r.eng.NoteMatrixSize(opSz)
	if r.obs == nil {
		return
	}
	r.stateSz = r.eng.SizeV(r.v)
	r.obs.step(stepInfo{
		gate:       gateIndex,
		combined:   combined,
		opNodes:    opSz,
		stateNodes: r.stateSz,
		wall:       time.Since(start),
		fromBlock:  fromBlock,
		block:      blockName,
		reuse:      reuse,
	})
}

// blockIndex maps a block's start gate index to the block.
func (r *runner) blockIndex() map[int]circuit.Block {
	m := make(map[int]circuit.Block, len(r.c.Blocks))
	for _, b := range r.c.Blocks {
		m[b.Start] = b
	}
	return m
}

// runBlock executes a repeated block DD-repeating style: combine the
// body once, then apply the same matrix Repeat times. A budget abort —
// while combining or applying — schedules a replay of the block's
// remaining gates.
func (r *runner) runBlock(b circuit.Block) error {
	body := b.End - b.Start
	end := b.Start + b.Repeat*body
	var mat dd.MEdge
	err := r.guard(b.Start, func() {
		// Fold through r.gateDD so block matrices respect the live
		// order; sifting never runs inside a block, so the matrix
		// cannot go stale across the repeats.
		mat = r.gateDD(r.c.Gates[b.Start])
		for i := b.Start + 1; i < b.End; i++ {
			mat = r.eng.MulMat(r.gateDD(r.c.Gates[i]), mat)
		}
	})
	if err != nil {
		return r.replay(err, end)
	}
	r.blockMats = append(r.blockMats, mat)
	popBlockMat := func() { r.blockMats = r.blockMats[:len(r.blockMats)-1] }
	for i := 0; i < b.Repeat; i++ {
		if err := r.checkAbort(); err != nil {
			popBlockMat()
			return err
		}
		upTo := b.Start + (i+1)*body
		err := r.guard(upTo, func() {
			r.applyOp(mat, upTo, body, true, b.Name, i > 0)
		})
		if err != nil {
			popBlockMat()
			return r.replay(err, end)
		}
		r.maybeGC()
		if err := r.maybeGovern(); err != nil {
			popBlockMat()
			return err
		}
		if err := r.maybeCheckpoint(); err != nil {
			popBlockMat()
			return err
		}
		if err := r.maybeVerify(false); err != nil {
			popBlockMat()
			return err
		}
	}
	popBlockMat()
	r.next = end
	return nil
}

// guard runs f, recovering engine aborts and any other panic into a
// typed *RunError anchored at gateIndex.
func (r *runner) guard(gateIndex int, f func()) (rerr *RunError) {
	defer func() {
		if rec := recover(); rec != nil {
			rerr = r.errFromPanic(rec, gateIndex)
		}
	}()
	f()
	return nil
}

// errFromPanic converts a recovered panic value into a *RunError:
// engine aborts keep their reason, everything else (mismatched-level
// or validation panics from internal/dd, strategy callbacks, …)
// becomes FailurePanic.
func (r *runner) errFromPanic(rec any, gateIndex int) *RunError {
	if a, ok := dd.AsAbort(rec); ok {
		re := &RunError{GateIndex: gateIndex, Cause: a}
		switch a.Reason {
		case dd.AbortDeadline:
			re.Kind, re.Err = FailureDeadline, ErrDeadlineExceeded
		case dd.AbortCanceled:
			re.Kind, re.Err = FailureCanceled, ErrCanceled
		case dd.AbortBudget:
			re.Kind, re.Err = FailureBudget, ErrBudgetExceeded
		default:
			re.Kind, re.Err = FailureInjected, ErrInjectedAbort
		}
		return re
	}
	if err, ok := rec.(error); ok {
		return &RunError{Kind: FailurePanic, GateIndex: gateIndex, Err: fmt.Errorf("core: recovered panic: %w", err)}
	}
	return &RunError{Kind: FailurePanic, GateIndex: gateIndex, Err: fmt.Errorf("core: recovered panic: %v", rec)}
}

// checkAbort polls the run's context between operations (the node
// budget is enforced inside the kernels). A context past its deadline
// is a deadline failure, any other done context a cancellation.
func (r *runner) checkAbort() error {
	select {
	case <-r.ctx.Done():
	default:
		return nil
	}
	err := r.ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		return &RunError{Kind: FailureDeadline, GateIndex: r.next, Err: ErrDeadlineExceeded, Cause: err}
	}
	return &RunError{Kind: FailureCanceled, GateIndex: r.next, Err: ErrCanceled, Cause: err}
}

// checkpoint snapshots the current consistent state for resume.
func (r *runner) checkpoint() *Checkpoint {
	return &Checkpoint{
		CircuitName: r.c.Name,
		NQubits:     r.c.NQubits,
		NextGate:    r.applied,
		Seed:        r.opt.Seed,
		Fallbacks:   replays(r.gov.journal),
		Strategy:    r.opt.Strategy.Name(),
		Order:       append([]int(nil), r.order...),
		State:       r.v,
	}
}

// abortCheckpointClean reports whether a failed run may hand out its
// state at r.applied as the abort checkpoint. Without a verifier it
// always may. Under one, a corruption failure never does, and any other
// failure first reruns the battery on that state with the abort
// sources disarmed; the accumulator, which no checkpoint records, is
// dropped from the check.
func (r *runner) abortCheckpointClean(re *RunError) bool {
	if r.ver == nil {
		return true
	}
	if re.Kind == FailureCorruption {
		return false
	}
	disarm(r.eng)
	r.accValid = false
	return r.maybeVerify(true) == nil
}

// disarm clears the engine's abort sources and soft budget.
func disarm(eng *dd.Engine) {
	eng.SetBudget(0)
	eng.SetContext(nil)
	eng.SetSoftBudget(0, dd.Watermarks{})
}

// maybeCheckpoint emits a periodic checkpoint once enough gates have
// been applied since the last one. Under a verifier the state must
// pass a verification pass first; a failing one ends the run and
// leaves the previous checkpoint as the resume point.
func (r *runner) maybeCheckpoint() error {
	if r.opt.OnCheckpoint == nil || r.opt.CheckpointEvery <= 0 {
		return nil
	}
	if r.applied-r.lastCkpt < r.opt.CheckpointEvery {
		return nil
	}
	if err := r.maybeVerify(true); err != nil {
		return err
	}
	r.lastCkpt = r.applied
	if err := r.opt.OnCheckpoint(r.checkpoint()); err != nil {
		return fmt.Errorf("%w: at gate %d: %w", ErrCheckpointWrite, r.applied, err)
	}
	if r.obs != nil {
		r.obs.checkpointEv(r.applied)
	}
	return nil
}

// gcThreshold couples the GC trigger to the live budget — the tighter
// of MaxNodes and the soft budget: collection must keep the live set
// comfortably below the cap or every operation would abort on garbage,
// and below the pressure watermarks whenever the workload allows, so
// the governor only engages when GC alone no longer suffices.
func (r *runner) gcThreshold() int {
	th := gcLiveThreshold
	b := r.opt.MaxNodes
	if s := r.opt.SoftBudget; s > 0 && (b <= 0 || s < b) {
		b = s
	}
	if b > 0 && b*3/4 < th {
		th = b * 3 / 4
	}
	return th
}

// collect garbage-collects with the run's live roots.
func (r *runner) collect() {
	mroots := append([]dd.MEdge(nil), r.blockMats...)
	if r.accValid {
		mroots = append(mroots, r.acc)
	}
	r.eng.GarbageCollect([]dd.VEdge{r.v}, mroots)
}

func (r *runner) maybeGC() {
	if r.live() > r.gcThreshold() {
		r.collect()
	}
}

// CombineGates multiplies gates [from, to) of c into a single operation
// matrix (linear left fold: each gate is multiplied onto the
// accumulated product in circuit order).
func CombineGates(eng *dd.Engine, c *circuit.Circuit, from, to int) (dd.MEdge, error) {
	if from < 0 || to > len(c.Gates) || from >= to {
		return dd.MEdge{}, fmt.Errorf("core: CombineGates: invalid range [%d,%d) of %d gates", from, to, len(c.Gates))
	}
	g := c.Gates[from]
	acc := eng.GateDD(g.Matrix, c.NQubits, g.Target, g.Controls)
	for i := from + 1; i < to; i++ {
		g = c.Gates[i]
		gd := eng.GateDD(g.Matrix, c.NQubits, g.Target, g.Controls)
		acc = eng.MulMat(gd, acc)
	}
	return acc, nil
}

// CombineGatesTree multiplies gates [from, to) as a balanced tree
// instead of a linear fold: products of neighbouring gates are combined
// pairwise, then pairs of pairs, and so on. Intermediate operands stay
// small and symmetric, which can expose more node sharing than the
// linear fold — the design-choice ablation benchmarked in
// BenchmarkAblationCombineOrder.
func CombineGatesTree(eng *dd.Engine, c *circuit.Circuit, from, to int) (dd.MEdge, error) {
	if from < 0 || to > len(c.Gates) || from >= to {
		return dd.MEdge{}, fmt.Errorf("core: CombineGatesTree: invalid range [%d,%d) of %d gates", from, to, len(c.Gates))
	}
	var build func(lo, hi int) dd.MEdge
	build = func(lo, hi int) dd.MEdge {
		if hi-lo == 1 {
			g := c.Gates[lo]
			return eng.GateDD(g.Matrix, c.NQubits, g.Target, g.Controls)
		}
		mid := lo + (hi-lo)/2
		left := build(lo, mid)  // earlier gates
		right := build(mid, hi) // later gates
		return eng.MulMat(right, left)
	}
	return build(from, to), nil
}

// FullMatrix combines the entire circuit into one operation matrix
// (Eq. 2 taken to the extreme).
func FullMatrix(eng *dd.Engine, c *circuit.Circuit) (dd.MEdge, error) {
	if len(c.Gates) == 0 {
		return eng.Identity(c.NQubits), nil
	}
	return CombineGates(eng, c, 0, len(c.Gates))
}
