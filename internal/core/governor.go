package core

import (
	"errors"
	"fmt"

	"repro/internal/dd"
)

// Degradation ladder: staged graceful degradation instead of
// budget-cliff aborts.
//
// The engine's pressure signal (dd.SetSoftBudget / dd.Pressure) bands
// live-node occupancy against watermark fractions of a soft budget.
// The governor consults it at flush boundaries — the only points where
// the run is in a consistent, checkpointable state — and walks the
// ladder, taking the cheapest measure that clears the pressure before
// reaching for the next:
//
//	rung 1 (≥ low)       emergency GC + compute-cache purge — exact,
//	                     pointer-preserving.
//	rung 2 (≥ high)      flush the accumulated operation matrix and pin
//	                     the strategy to sequential until occupancy
//	                     falls below the low watermark — exact; the
//	                     pending matrix is applied just like a regular
//	                     flush, only earlier.
//	       (critical)    replay: when the hard budget (MaxNodes) aborts
//	                     a combination, a flush or a block, the
//	                     accumulator is discarded and the tripped gate
//	                     run is re-applied one gate DD and one
//	                     matrix-vector product at a time (Eq. 1, the
//	                     low-memory end of the paper's trade), pinned
//	                     sequential until its last gate. A budget abort
//	                     during the replay is final.
//	rung 3 (≥ high)      a sifting pass to shrink the state DD itself —
//	                     exact up to weight re-canonicalisation (the
//	                     same contract as Options.Reorder "sifting").
//	rung 4 (critical)    opt-in (Degrade "approx"): fidelity-bounded
//	                     state approximation via dd.Engine.Approximate;
//	                     the bound multiplies into Result.FidelityBound.
//	rung 5 (critical)    checkpoint-then-park: the run returns a
//	                     *RunError of kind FailurePressure (retryable —
//	                     the abort-checkpoint path in RunContext writes
//	                     the park checkpoint) instead of tripping the
//	                     hard budget mid-kernel.
//
// Rungs 1, 3, 4 and 5 and rung 2's flush arm only under SoftBudget or
// Degrade "ladder"/"approx"; the replay needs only MaxNodes, and
// Degrade "off" switches it off too. Every action is journaled into
// Result.Degradations and emitted as an obs KindPressure event with
// dd_pressure_* metrics. Under chaos injection (dd.InjectPressure) the
// level never subsides, so a single governor look deterministically
// walks every rung the injected level unlocks — that is how CI forces
// each rung.

// Degrade modes (Options.Degrade).
const (
	degradeOff    = "off"
	degradeLadder = "ladder"
	degradeApprox = "approx"
)

// Degradation is one journaled action of the degradation ladder.
type Degradation struct {
	// GateIndex is the gate index through which the state was applied
	// when the action was taken.
	GateIndex int `json:"gate"`
	// Rung is the ladder rung (1–5, with both "flush" and "replay" on
	// rung 2).
	Rung int `json:"rung"`
	// Action names the measure: "gc", "flush", "replay", "sift",
	// "approx", "park".
	Action string `json:"action"`
	// Level is the pressure band that triggered the action ("low",
	// "high", "critical").
	Level string `json:"level"`
	// LiveBefore/LiveAfter are the combined live-node counts around
	// the action.
	LiveBefore int `json:"live_before"`
	LiveAfter  int `json:"live_after"`
	// Fidelity is the fidelity bound of an approximation rung (0 for
	// exact actions).
	Fidelity float64 `json:"fidelity,omitempty"`
}

// pressureMarks are the occupancy fractions of the soft budget at which
// the pressure level steps up (zero value: dd.DefaultWatermarks,
// 70/85/95 %). A variable only so tests can band earlier
// (export_test.go).
var pressureMarks dd.Watermarks

// errReplay is returned by a step whose budget abort the ladder turned
// into a replay; the main loop continues at the rewound gate.
var errReplay = errors.New("core: replaying a budget-tripped gate run")

// normalizeGovernor validates the governor knobs and resolves their
// defaults in place: SoftBudget implies Degrade "ladder"; Degrade
// without SoftBudget governs against MaxNodes; ApproxNodes defaults to
// SoftBudget/4 floored at the qubit count. Violations return a typed
// *ConfigError naming the offending option.
func normalizeGovernor(opt *Options, nqubits int) error {
	switch opt.Degrade {
	case "", degradeOff, degradeLadder, degradeApprox:
	default:
		return &ConfigError{Option: "Degrade",
			Msg: fmt.Sprintf("unknown mode %q (want off, ladder or approx)", opt.Degrade)}
	}
	if opt.SoftBudget < 0 {
		return &ConfigError{Option: "SoftBudget",
			Msg: fmt.Sprintf("must be >= 0, got %d", opt.SoftBudget)}
	}
	if opt.SoftBudget > 0 && opt.MaxNodes > 0 && opt.SoftBudget > opt.MaxNodes {
		return &ConfigError{Option: "SoftBudget",
			Msg: fmt.Sprintf("soft budget %d exceeds the hard budget MaxNodes=%d", opt.SoftBudget, opt.MaxNodes)}
	}
	mode := opt.Degrade
	if mode == "" && opt.SoftBudget > 0 {
		mode = degradeLadder
	}
	if mode == "" || mode == degradeOff {
		if opt.ApproxNodes != 0 {
			return &ConfigError{Option: "ApproxNodes",
				Msg: `only meaningful with Degrade "approx"`}
		}
		opt.Degrade = mode
		return nil
	}
	if opt.SoftBudget == 0 {
		if opt.MaxNodes == 0 {
			return &ConfigError{Option: "Degrade",
				Msg: fmt.Sprintf("%q needs a budget to govern against (set SoftBudget or MaxNodes)", mode)}
		}
		opt.SoftBudget = opt.MaxNodes
	}
	switch {
	case mode != degradeApprox && opt.ApproxNodes != 0:
		return &ConfigError{Option: "ApproxNodes",
			Msg: `only meaningful with Degrade "approx"`}
	case mode == degradeApprox && opt.ApproxNodes == 0:
		opt.ApproxNodes = opt.SoftBudget / 4
		if opt.ApproxNodes < nqubits {
			opt.ApproxNodes = nqubits
		}
	case mode == degradeApprox && opt.ApproxNodes < nqubits:
		// Mirrors the dd.Engine.Approximate precondition: a product
		// state already needs one node per qubit.
		return &ConfigError{Option: "ApproxNodes",
			Msg: fmt.Sprintf("approximation floor %d below qubit count %d (a state DD cannot be smaller)", opt.ApproxNodes, nqubits)}
	}
	opt.Degrade = mode
	return nil
}

// governor holds the ladder state of one run. The soft budget it
// answers to is r.opt.SoftBudget, fixed once normalizeGovernor has
// resolved it.
type governor struct {
	r *runner
	// mode is degradeLadder or degradeApprox when the pressure rungs
	// are armed, "" or degradeOff otherwise.
	mode string
	// replayArmed arms the budget-abort replay (MaxNodes set, Degrade
	// not "off").
	replayArmed bool
	// replayEnd is the gate index through which a scheduled replay
	// pins the run to sequential: the replay holds while applied <
	// replayEnd.
	replayEnd int
	// approxNodes is rung 4's state-size target.
	approxNodes int
	// pinSeq is rung 2's sticky half: ShouldApply is forced until
	// occupancy falls below the low watermark.
	pinSeq bool
	// journal is the run's Result.Degradations.
	journal []Degradation
	// fidelity is the cumulative fidelity bound (1 until rung 4 cuts).
	fidelity float64
	// lastGCs is the engine's GC count at the last governor look;
	// rung 1 only collects when nothing else collected since.
	lastGCs uint64
	// lastSiftGate/lastApproxGate dedupe rungs 3 and 4 to one attempt
	// per applied-gate position.
	lastSiftGate   int
	lastApproxGate int
}

func newGovernor(r *runner) *governor {
	return &governor{
		r:              r,
		mode:           r.opt.Degrade,
		replayArmed:    r.opt.MaxNodes > 0 && r.opt.Degrade != degradeOff,
		approxNodes:    r.opt.ApproxNodes,
		fidelity:       1,
		lastSiftGate:   -1,
		lastApproxGate: -1,
	}
}

// ladderArmed reports whether the pressure rungs are armed (after
// normalizeGovernor: SoftBudget or Degrade "ladder"/"approx").
func (g *governor) ladderArmed() bool {
	return g.mode == degradeLadder || g.mode == degradeApprox
}

// replaying reports whether a replay holds the run at sequential.
func (g *governor) replaying() bool { return g.r.applied < g.replayEnd }

// pinned reports whether the ladder holds the strategy at sequential:
// rung 2's pin or a replay in progress.
func (g *governor) pinned() bool { return g.pinSeq || g.replaying() }

// maybeGovern consults the pressure signal at a flush boundary and, if
// a watermark is crossed, walks the ladder. It stays out of a replay,
// which must re-apply exactly the gates that tripped the budget. The
// returned error is a *RunError for a rung-5 park or a genuine abort
// inside a rung, and errReplay when rung 2's flush tripped the budget.
func (r *runner) maybeGovern() error {
	g := r.gov
	if !g.ladderArmed() || g.replaying() {
		return nil
	}
	p := r.eng.Pressure()
	if p.Level == dd.PressureNone {
		// Recovery: below the low watermark the pin is lifted and the
		// configured strategy resumes combining.
		g.pinSeq = false
		g.lastGCs = r.eng.Stats().GCs
		return nil
	}
	return g.act(p)
}

// replay is the ladder's answer to a budget abort (FailureBudget)
// inside a combination, a flush or a block whose gate run ends at end:
// discard the accumulator, collect, rewind r.next to the first gate
// the state does not yet reflect, and pin the run to sequential until
// end is applied. The main loop then re-applies the run one gate at a
// time. Any other error, a budget abort during a replay, or a budget
// abort with replay switched off is returned as is.
func (r *runner) replay(err *RunError, end int) error {
	g := r.gov
	if err.Kind != FailureBudget || !g.replayArmed || g.replaying() {
		return err
	}
	before := r.live()
	r.accValid = false
	r.combined = 0
	r.collect()
	r.next = r.applied
	g.replayEnd = end
	g.note(2, "replay", dd.PressureCritical, before, r.live(), 0)
	return errReplay
}

// replays counts the budget-abort replays in a degradation journal.
func replays(journal []Degradation) int {
	n := 0
	for _, d := range journal {
		if d.Action == "replay" {
			n++
		}
	}
	return n
}

// Replays counts the run's budget-abort replays (the "replay" entries
// of Degradations).
func (res *Result) Replays() int { return replays(res.Degradations) }

// act walks the ladder for one boundary. Each rung re-reads the
// pressure afterwards and stops as soon as the level has dropped below
// the next rung's threshold. Under chaos injection the level never
// drops, so one call deterministically reaches every rung the injected
// level unlocks.
func (g *governor) act(p dd.PressureInfo) error {
	r := g.r

	// Rung 1 (≥ low): emergency collection + compute-cache purge —
	// skipped when a collection already ran since the last look (then
	// the garbage is already gone and the live set is what remains).
	if gcs := r.eng.Stats().GCs; gcs == g.lastGCs {
		before, lvl := p.Live, p.Level
		r.collect()
		p = r.eng.Pressure()
		g.note(1, "gc", lvl, before, p.Live, 0)
	}
	g.lastGCs = r.eng.Stats().GCs
	if p.Level < dd.PressureHigh {
		return nil
	}

	// Rung 2 (≥ high): stop accumulating. The pending operation matrix
	// is flushed — applied to the state exactly as a regular flush
	// would, only earlier — and the strategy is pinned to sequential
	// until occupancy falls below the low watermark.
	if r.accValid || !g.pinSeq {
		before, lvl := p.Live, p.Level
		if err := r.flush(r.next); err != nil {
			return err
		}
		g.pinSeq = true
		r.collect()
		g.lastGCs = r.eng.Stats().GCs
		p = r.eng.Pressure()
		g.note(2, "flush", lvl, before, p.Live, 0)
		if p.Level < dd.PressureHigh {
			return nil
		}
	}

	// Rung 3 (≥ high persists): one sifting pass to shrink the state
	// DD itself, even in fixed-order runs. Skipped while a combined
	// block matrix is alive (it would go stale against the new order),
	// when sifting's own intermediates would not fit the hard budget,
	// and re-attempted at most once per gate position.
	if g.lastSiftGate != r.applied && len(r.blockMats) == 0 && r.siftHeadroom() {
		g.lastSiftGate = r.applied
		before, lvl := p.Live, p.Level
		if err := r.sift(); err != nil {
			return err
		}
		p = r.eng.Pressure()
		g.note(3, "sift", lvl, before, p.Live, 0)
	}
	if p.Level < dd.PressureCritical {
		return nil
	}

	// Rung 4 (critical, opt-in): fidelity-bounded approximation of the
	// state DD down to approxNodes.
	if g.mode == degradeApprox && g.lastApproxGate != r.applied {
		g.lastApproxGate = r.applied
		cut, err := g.approximate(&p)
		if err != nil {
			return err
		}
		if cut && p.Level < dd.PressureCritical {
			return nil
		}
	}
	if p.Level < dd.PressureCritical {
		return nil
	}

	// Rung 5: checkpoint-then-park. The run returns a typed pressure
	// failure from a consistent boundary; RunContext's abort-checkpoint
	// path writes the park checkpoint, and Retryable reports the error
	// as retryable so schedulers re-admit the job under a quieter
	// budget instead of losing it.
	g.note(5, "park", dd.PressureCritical, p.Live, p.Live, 0)
	return &RunError{Kind: FailurePressure, GateIndex: r.next, Err: ErrPressure}
}

// approximate runs rung 4: cut the state DD down to g.approxNodes,
// multiplying the cut's fidelity into the cumulative bound. Reports
// whether a cut happened; a state already at or under the target, or
// one the engine refuses to cut (it would collapse), falls through to
// the next rung without an error.
func (g *governor) approximate(p *dd.PressureInfo) (bool, error) {
	r := g.r
	var sz int
	if err := r.guard(r.next, func() { sz = r.stateSize() }); err != nil {
		return false, err
	}
	if sz <= g.approxNodes {
		return false, nil // the state is not what fills the budget
	}
	before := p.Live
	var (
		ar   dd.ApproxResult
		aerr error
	)
	if err := r.guard(r.next, func() {
		ar, aerr = r.eng.Approximate(r.v, g.approxNodes)
	}); err != nil {
		return false, err
	}
	if aerr != nil {
		// Unusable cut (e.g. the state would collapse to zero): stay
		// exact and let the next rung decide.
		return false, nil
	}
	r.v = ar.State
	r.stateSz = -1
	g.fidelity *= ar.Fidelity
	r.collect()
	*p = r.eng.Pressure()
	g.note(4, "approx", dd.PressureCritical, before, p.Live, ar.Fidelity)
	return true, nil
}

// note journals one ladder action and forwards it to the event stream
// and the caller's pressure hook.
func (g *governor) note(rung int, action string, level dd.PressureLevel, before, after int, fid float64) {
	d := Degradation{
		GateIndex:  g.r.applied,
		Rung:       rung,
		Action:     action,
		Level:      level.String(),
		LiveBefore: before,
		LiveAfter:  after,
		Fidelity:   fid,
	}
	g.journal = append(g.journal, d)
	if g.r.obs != nil {
		g.r.obs.pressureEv(g.r.next, d)
	}
	if g.r.opt.OnPressure != nil {
		g.r.opt.OnPressure(d)
	}
}
