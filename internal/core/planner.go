package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/circuit"
	"repro/internal/dd"
)

// Planner defaults and tuning constants. The defaults are the values
// the planner-vs-fixed sweep (internal/bench, -experiment planner) was
// tuned against; zero-valued knobs select them so &Planner{} is a
// working configuration.
const (
	// defaultPlannerWindow bounds the combination window: the planner
	// never folds more than this many gates into one operation matrix,
	// however cheap the accumulator stays. The bound is a safety cap,
	// not an operating point — the ratio/growth/cost trips are the real
	// brakes, and the cap must sit high enough that a circuit whose
	// accumulator stays tiny (the Adaptive sweet spot) is still
	// reachable by the window adaptation.
	defaultPlannerWindow = 1024
	// defaultPlannerRatio is the op-to-state flush bound (same quantity
	// Adaptive uses): the accumulator is applied once its DD exceeds
	// ratio x the state DD.
	defaultPlannerRatio = 1.0
	// defaultPlannerGrowth is the proactive-flush lookahead in gates:
	// flush when the current per-gate op-DD growth, extrapolated this
	// many gates ahead, would cross the ratio bound.
	defaultPlannerGrowth = 2.0
	// plannerInitWindow is the windowed mode's starting window for
	// moderate-locality circuits (Grover measures ~0.15 and settles at
	// 2-4); plannerNarrowInit is the start above plannerNarrowLocality,
	// where nearly every gate chains on the same registers (Shor's
	// modular arithmetic measures ~0.76), products entangle within a
	// composition or two, and — the part that matters for cost —
	// segmented simulations like Shor's semiclassical QFT re-pay the
	// descent from the initial window once per segment. Circuits whose
	// measured locality says "ride" use neither (see
	// plannerRideLocality).
	plannerInitWindow     = 4
	plannerNarrowInit     = 2
	plannerNarrowLocality = 0.5
	// plannerNoiseFloor is the op-DD node count below which the growth
	// trip never fires: tiny accumulators grow by whole multiples
	// gate-to-gate without being expensive.
	plannerNoiseFloor = 64
	// plannerCostFactor scales the in-window runaway guard: once the
	// window's absorption has burned more than plannerCostFactor x
	// combined x the learned per-gate baseline (+ the floor below) in
	// kernel recursions, the mat-mat bet has lost regardless of node
	// counts — flush now. The budget is anchored to the measured
	// baseline, not the state size: on wide states a node-count bound
	// would let a runaway absorb burn millions of recursions before
	// tripping.
	plannerCostFactor = 3
	// plannerCostFloor keeps the runaway guard quiet at scales where a
	// few hundred recursions are noise.
	plannerCostFloor = 1 << 10
	// plannerLocalitySample bounds how many gates the static model
	// inspects when choosing the initial window.
	plannerLocalitySample = 256
	// plannerBuckets is the size of the per-window-size cost table:
	// windows are powers of two, bucket b holding the measured cost of
	// window 1<<b. 32 buckets cover any int-sized MaxWindow.
	plannerBuckets = 32
	// plannerStaleWindows is the re-exploration cadence: a cost sample
	// older than this many flushes is treated as unknown again, so the
	// planner keeps probing neighbouring window sizes at a bounded
	// (~1/160) overhead as the circuit moves between phases.
	plannerStaleWindows = 160
	// plannerCeilingFlushes is how long a blow-up ceiling holds: after a
	// window ends in a ratio/growth/cost trip, the planner refuses to
	// widen back to that target size for this many flushes — one probe
	// ride per ceiling period bounds the cost of re-checking whether the
	// circuit has entered a combine-friendly phase.
	plannerCeilingFlushes = 160
	// plannerUpMargin is the hysteresis for widening on known costs: a
	// wider window must measure at least this much cheaper before the
	// planner moves up, while any measured gain moves it down. The
	// asymmetry leans sequential-ward, where the failure mode is mild
	// (Eq. 1 is the baseline), rather than combine-ward, where it is a
	// ratio blow-up. The margin is wide because the samples are wall
	// measurements with ~15% noise: on circuits whose neighbouring
	// window sizes genuinely tie (Shor's w1 vs w2), a thin margin lets
	// every lucky sample buy a probe excursion that the kernels then
	// pay for.
	plannerUpMargin = 0.75
	// plannerCreateWeight is the node-creation weight in the planner's
	// scalar work metric (see plannerEffort). Recursions alone
	// under-price matrix-matrix work: a mat-mat recursion interns fresh
	// matrix nodes (allocation, hashing, normalisation) where a cached
	// mat-vec recursion touches existing ones, and on workloads where
	// k=1 and k=2 differ by ~20% wall time the recursion counts differ
	// by only ~4% — creations carry the missing signal.
	plannerCreateWeight = 4
	// plannerLeanWindow is the narrow-window fast path bound: while the
	// target window is at or under this size, mid-window gates skip the
	// ratio/growth/cost evaluation entirely — no opSize/stateSize DD
	// traversals — and only the window-full gate measures. At these
	// sizes the exposure of deferring the ratio check is at most a
	// couple of absorbed gates, while the per-gate traversals are pure
	// overhead against the fixed strategies (KOperations never sizes
	// anything), which is exactly the regime — Grover, Shor — where the
	// planner must match them to within a few percent on
	// tens-of-milliseconds workloads.
	plannerLeanWindow = 4
	// plannerSettledStride is the settled-mode measurement cadence at
	// narrow windows: when the table keeps choosing a window at or
	// under plannerLeanWindow, only every Nth window is measured
	// (probe, clock, sizes, table update) and the rest flush on gate
	// count alone, exactly like the fixed strategy the planner has
	// converged to. At these window sizes the planner competes against
	// Sequential/KOperations whose per-gate decision is a single
	// integer compare — measuring every window would spend more than
	// the decisions are worth.
	plannerSettledStride = 16
	// plannerRideLocality is the static model's ride-mode cutoff: below
	// this fraction of qubit-sharing consecutive gate pairs the circuit
	// is layered from disjoint gates (random-circuit style), whose
	// products are structurally tensor products that the identity-skip
	// kernels keep compact — the planner then rides the ratio bound
	// directly (window = MaxWindow) instead of learning window sizes it
	// has too few flushes to learn.
	plannerRideLocality = 0.02
)

// Planner is the cost-model-driven adaptive strategy (ROADMAP item 4):
// it decides per circuit segment how far to follow the paper's Eq. 2
// (combine gates by matrix-matrix multiplication) before falling back
// to Eq. 1 (apply to the state), instead of leaving k / s_max to the
// user.
//
// The decision stack, cheapest first — ShouldApply returns true (flush)
// on the first trip:
//
//   - "window": the combination window is full. The window starts from
//     a static cost model (gate locality over the upcoming gates, see
//     initialWindow) and is then steered by a learned per-size cost
//     table: after each flush is applied, the planner records the
//     window's measured wall time per gate — absorption plus apply, so
//     per-flush overhead is priced in — into the power-of-two bucket of
//     its realized size (EWMA, see record). A window that completed cleanly with
//     the accumulator still within the state bound widens into
//     unexplored or known-cheaper sizes — that is how combine-friendly
//     circuits climb to Adaptive-like deep windows — while a window
//     that blew up (ratio/growth/cost trip) arms a ceiling that blocks
//     re-widening to that size for plannerCeilingFlushes. Among known
//     costs, any measured gain narrows the window but widening demands
//     a plannerUpMargin improvement: the failure mode of being too
//     narrow is the Eq. 1 baseline, the failure mode of being too wide
//     is a blow-up. A circuit where matrix-matrix work is a loss
//     settles at window 1-2 (sequential-like) and re-probes width only
//     at the stale/ceiling cadence. Measured engine cost, not a
//     node-count heuristic, decides (see nextBucket).
//   - "ratio": the accumulated operation DD exceeds FlushRatio x the
//     state DD — the Adaptive bound, kept as the planner's hard line.
//   - "growth": proactive flush. The op DD is still under the bound,
//     but its current per-gate growth, extrapolated Growth gates ahead,
//     crosses it — flush now rather than absorb another gate into an
//     accumulator that is about to be expensive.
//   - "cost": in-window runaway guard. The probe shows the window's
//     absorption alone already burned far more recursions than the
//     learned per-gate baseline says its gates should cost; the mat-mat
//     bet has lost regardless of node counts. This is the brake that
//     does not depend on DD sizes, so it still fires where the state DD
//     is huge and a node-ratio bound would react far too late.
//
// Expensive trips (ratio, growth, cost) flush early; their realized
// cost — absorption plus the apply — is charged to the bucket of the
// size they actually reached, so the table prices window sizes by what
// running at them really costs, ratio blow-ups included.
//
// Every flush decision is recorded as an obs.KindPlanner event plus
// dd_planner_* metrics. A Planner carries per-run adaptive state, so it
// has pointer methods; RunContext clones it per run (see runBound), so
// one Options value can be shared across concurrent runs and a resumed
// run restarts with the adaptive state reset.
type Planner struct {
	// MaxWindow bounds the combination window (0 selects 1024).
	MaxWindow int
	// FlushRatio is the op-to-state size bound (0 selects 1).
	FlushRatio float64
	// Growth is the proactive-flush lookahead in gates (0 selects 2).
	Growth float64

	// Per-run state, owned by the run's clone (see cloneForRun).
	eng      *dd.Engine
	window   int // current target combination window (1<<bucket, capped)
	bucket   int // log2 of the current target window
	prevOp   int // op-DD size at the previous decision in this window
	winStart dd.Probe
	winClock time.Time
	sampled  bool // winStart/winClock hold the window-start probe/time
	decision PlannerDecision
	pending  bool // decision awaits collection by the runner
	// lastCombined is the gate count of the flush whose cost noteApply
	// should measure (0 = none pending).
	lastCombined int
	// mem is the learned state, engine-resident (see plannerMemory):
	// it survives across the segments of one simulation.
	mem *plannerMemory
	// skipLeft counts remaining unmeasured settled-mode windows (see
	// plannerSettledStride).
	skipLeft int
	// ride marks ride mode (see plannerRideLocality): the window stays
	// at MaxWindow and only a cost-trip ceiling clamps it.
	ride bool
}

// plannerMemory is the planner's learned state. It lives in the
// engine's strategy-scratch slot rather than in the Planner clone: the
// engine's lifetime matches the logical simulation, so a multi-segment
// driver (Shor's semiclassical QFT calls the runner once per modular
// power against one engine) re-enters each segment with the table
// already settled instead of re-paying the probe descent ~10 times. A
// resumed or repaired run gets a fresh engine and therefore fresh
// memory, preserving the reset semantics the checkpoint layer tests.
type plannerMemory struct {
	// Learned cost table: cost[b] is the EWMA of measured wall
	// nanoseconds per gate at realized window size 1<<b — absorption
	// plus apply, so per-flush fixed overhead is priced in naturally —
	// seen[b] the flush index of its last sample (0 = never, the
	// staleness reference), flushes the running sample count.
	cost    [plannerBuckets]float64
	seen    [plannerBuckets]int
	flushes int
	// Blow-up ceiling: after an expensive trip, ceilWindow is the
	// target window that blew up and ceilSet the flush index, blocking
	// fast-widening back to that size for plannerCeilingFlushes.
	ceilWindow int
	ceilSet    int
	// baseRate is the EWMA of per-gate-per-state-node effort over
	// well-behaved flushes — what a gate costs here when combining is
	// behaving, normalized by the state DD size at the sample so the
	// estimate survives the state growing between samples. The
	// in-window runaway guard budgets against it (plannerCostFactor),
	// re-scaled by the state size at the moment of the check.
	baseRate float64
}

// PlannerDecision is one flush decision, as handed to the obs layer.
type PlannerDecision struct {
	// Reason names the trip: "window", "ratio", "growth" or "cost".
	Reason string
	// Combined is the number of gates in the flushed window.
	Combined int
	// OpNodes and StateNodes are the DD sizes the decision weighed.
	OpNodes, StateNodes int
	// Window is the planner's target combination window at the
	// decision (the cost-table adjustment lands after the apply is
	// measured, so it shows in the next decision).
	Window int
}

func (p *Planner) maxWindow() int {
	if p.MaxWindow == 0 {
		return defaultPlannerWindow
	}
	return p.MaxWindow
}

func (p *Planner) flushRatio() float64 {
	if p.FlushRatio == 0 {
		return defaultPlannerRatio
	}
	return p.FlushRatio
}

func (p *Planner) growth() float64 {
	if p.Growth == 0 {
		return defaultPlannerGrowth
	}
	return p.Growth
}

// Name implements Strategy. Resolved knob values are encoded so the
// name round-trips through checkpoints and the ddserve journal
// (StrategyFromName reconstructs an equivalent planner with fresh
// adaptive state).
func (p *Planner) Name() string {
	return fmt.Sprintf("planner(w=%d,r=%g,g=%g)", p.maxWindow(), p.flushRatio(), p.growth())
}

// ShouldApply implements Strategy. It is allocation-free after binding
// (guarded by BenchmarkPlannerDecision in CI). Decisions are driven by
// gate index, DD sizes, engine counters and measured wall time — the
// last makes the flush cuts themselves timing-dependent, which is
// harmless for correctness: any sequence of cuts yields the same state,
// and the differential test proves it by replaying the planner's
// recorded cuts as a fixed strategy and requiring an identical state.
func (p *Planner) ShouldApply(combined int, opSize, stateSize func() int) bool {
	if p.window <= 0 {
		// Unbound use (no RunContext): behave as a statically sized
		// window from the first call.
		if p.mem == nil {
			p.mem = &plannerMemory{}
		}
		p.setBucket(bucketFor(min(plannerInitWindow, p.maxWindow())))
	}
	if p.skipLeft > 0 && p.window <= plannerLeanWindow {
		// Settled mode: the table has repeatedly confirmed this narrow
		// window; flush on gate count alone, as the equivalent fixed
		// strategy would. The decision event reuses the last measured
		// DD sizes — at a 1-2 gate cadence they cannot have moved far.
		if combined < p.window {
			return false
		}
		p.skipLeft--
		p.lastCombined = 0
		p.decision = PlannerDecision{
			Reason:     "window",
			Combined:   combined,
			OpNodes:    p.decision.OpNodes,
			StateNodes: p.decision.StateNodes,
			Window:     p.window,
		}
		p.pending = true
		return true
	}

	if !p.sampled {
		if p.eng != nil {
			p.winStart = p.eng.Probe()
		}
		p.winClock = time.Now()
		p.sampled = true
	}

	if combined < p.window && p.window <= plannerLeanWindow {
		return false
	}

	op := opSize()
	dOp := op - p.prevOp
	p.prevOp = op
	st := stateSize()
	bound := p.flushRatio() * float64(st)

	reason := ""
	switch {
	case float64(op) > bound:
		reason = "ratio"
	case combined >= p.window:
		if p.widenInPlace(op, st) {
			// The window filled with the accumulator still far under
			// the state bound: keep absorbing instead of paying a
			// matrix-vector apply just to restart. This is the regime
			// where Eq. 2 wins outright (the Adaptive sweet spot), and
			// on a large state DD the flush itself is the dominant
			// cost.
			return false
		}
		reason = "window"
	case combined >= 2 && op > plannerNoiseFloor && dOp > 0 &&
		float64(op)+p.growth()*float64(dOp) > bound:
		reason = "growth"
	case combined >= 2 && p.eng != nil && p.mem.baseRate > 0 &&
		plannerEffort(p.eng.Probe().Sub(p.winStart)) >
			plannerCostFactor*float64(combined)*p.mem.baseRate*float64(max(st, 1))+
				plannerCostFloor:
		reason = "cost"
	default:
		return false
	}

	// Hand the flush to noteApply for cost measurement — the charge
	// must include the matrix-vector apply, which has not happened yet.
	// Expensive trips are measured too: their realized cost is charged
	// to the window size that was being targeted, which is exactly what
	// teaches the table that targeting a wide window here ends in a
	// ratio blow-up, not just that narrow windows exist.
	p.lastCombined = combined

	p.decision = PlannerDecision{
		Reason:     reason,
		Combined:   combined,
		OpNodes:    op,
		StateNodes: st,
		Window:     p.window,
	}
	p.pending = true
	return true
}

// cloneForRun implements runBound: RunContext runs against a copy so
// concurrent runs sharing one Options value cannot race on the adaptive
// state, and every run (including a checkpoint resume) starts with that
// state reset.
func (p *Planner) cloneForRun() runBound {
	c := *p
	c.eng = nil
	c.window = 0
	c.bucket = 0
	c.prevOp = 0
	c.winStart = dd.Probe{}
	c.winClock = time.Time{}
	c.sampled = false
	c.decision = PlannerDecision{}
	c.pending = false
	c.lastCombined = 0
	c.mem = nil // adopted from the engine at bindRun
	c.skipLeft = 0
	c.ride = false
	return &c
}

// bindRun implements runBound: called once per run — and again when a
// corruption repair swaps in a fresh engine — to give the planner its
// probe source and let the static cost model size the initial window
// from the gates about to run.
func (p *Planner) bindRun(eng *dd.Engine, c *circuit.Circuit, startGate int) {
	p.eng = eng
	p.prevOp = 0
	p.sampled = false
	p.lastCombined = 0
	p.skipLeft = 0
	if m, ok := eng.StrategyScratch().(*plannerMemory); ok && m != nil {
		p.mem = m
	} else {
		p.mem = &plannerMemory{}
		eng.SetStrategyScratch(p.mem)
	}
	loc := localityOf(c, startGate)
	p.ride = loc >= 0 && loc < plannerRideLocality
	switch {
	case p.ride:
		p.setBucket(p.maxBucket())
	case p.mem.flushes > 0:
		// Warm memory from an earlier segment against this engine:
		// start at the cheapest priced window instead of re-running
		// the probe descent.
		p.setBucket(p.warmBucket())
	default:
		p.setBucket(bucketFor(p.initialWindow(loc)))
	}
}

// warmBucket is the cheapest bucket the memory has priced, for warm
// starts (see bindRun).
func (p *Planner) warmBucket() int {
	best, found := 0, false
	for b := 0; b <= p.maxBucket(); b++ {
		if p.mem.seen[b] != 0 && (!found || p.mem.cost[b] < p.mem.cost[best]) {
			best, found = b, true
		}
	}
	if !found {
		return bucketFor(plannerInitWindow)
	}
	return best
}

// noteApply implements runBound: the runner reports every applied
// operation (flush, budget-abort replay step, block apply). For a planner flush
// this is where the cost table learns what targeting the current
// window actually cost — the probe now spans the window's
// matrix-matrix absorption AND the matrix-vector apply — and the next
// window size is chosen. The cost rate is plain kernel recursions per
// gate; the staleness cadence (see unknown) keeps compared samples
// close enough in time that the state DD's slow drift does not skew
// the comparison.
func (p *Planner) noteApply(int) {
	if p.lastCombined > 0 && p.eng != nil && p.sampled {
		realized := bucketFor(p.lastCombined)
		// The bucket table is priced in the quantity being minimized:
		// wall time per gate for the whole window, absorption and apply
		// included. Engine counters cannot stand in for it — where the
		// DDs are tiny (Grover runs at 20-40 nodes) the per-flush fixed
		// overhead dominates and recursion counts rank narrow windows
		// exactly backwards.
		rate := float64(time.Since(p.winClock).Nanoseconds()) / float64(p.lastCombined)
		p.record(realized, rate)
		clean := p.decision.Reason == "window"
		if clean || (p.ride && p.decision.Reason != "cost") {
			// The runaway-guard baseline stays in engine-counter units
			// (plannerEffort): the guard compares a window in progress,
			// whose wall time a mid-window check cannot attribute, while
			// the probe delta is exact. Sampled on well-behaved flushes:
			// clean window flushes in windowed mode, any non-runaway
			// flush in ride mode (where windows never fill, ratio trips
			// ARE normal operation). Normalized by the state size at the
			// sample — later rides run against a larger state and get a
			// proportionally larger budget.
			effortRate := plannerEffort(p.eng.Probe().Sub(p.winStart)) / float64(p.lastCombined)
			norm := effortRate / float64(max(p.decision.StateNodes, 1))
			if p.mem.baseRate == 0 {
				p.mem.baseRate = norm
			} else {
				p.mem.baseRate = 0.75*p.mem.baseRate + 0.25*norm
			}
		}
		if p.decision.Reason == "cost" || (!clean && !p.ride) {
			// The window blew up mid-ride: arm the ceiling at the size
			// the ride actually reached, so the planner does not
			// immediately ride back out to the size that just proved
			// expensive (the target it was aiming for may be far wider
			// than it ever got). In ride mode only a true runaway (a
			// cost trip — the ride burned past its recursion budget)
			// arms it: ratio and growth trips are the operating mode
			// there, their cost bounded by construction.
			p.mem.ceilWindow = min(p.window, max(2, 1<<realized))
			p.mem.ceilSet = p.mem.flushes
		}
		if p.ride {
			// Ride mode: stay at the cap; a cost-trip ceiling clamps
			// the window below the runaway size until it expires.
			if maxB := p.maxBucket(); p.widenAllowed(maxB) {
				p.setBucket(maxB)
			} else {
				p.setBucket(max(bucketFor(p.mem.ceilWindow)-1, 0))
			}
		} else {
			nb := p.nextBucket(realized)
			if nb == p.bucket && clean && p.window <= plannerLeanWindow {
				// The table re-confirmed a narrow window: stop paying
				// for measurements it keeps agreeing with (see
				// plannerSettledStride).
				p.skipLeft = plannerSettledStride - 1
			}
			p.setBucket(nb)
		}
		p.lastCombined = 0
	}
	p.prevOp = 0
	p.sampled = false
}

// widenAllowed reports whether the planner may widen to bucket b, i.e.
// no recent blow-up ceiling covers that size.
func (p *Planner) widenAllowed(b int) bool {
	return p.mem.ceilWindow == 0 || 1<<b < p.mem.ceilWindow ||
		p.mem.flushes-p.mem.ceilSet > plannerCeilingFlushes
}

// plannerExtendFactor gates in-place widening: the window only extends
// without flushing while op x this factor still fits under the state
// DD — i.e. while absorption is operating far from the ratio bound.
const plannerExtendFactor = 4

// widenInPlace decides whether a full window should extend rather than
// flush, and performs the extension. Extending is free (no apply) but
// unmeasured — no cost sample is recorded for the size it skips — so it
// is only taken when the accumulator is deep inside the cheap regime
// (op*plannerExtendFactor <= st) and nothing known argues against the
// next size up.
func (p *Planner) widenInPlace(op, st int) bool {
	up := min(p.bucket+1, p.maxBucket())
	if up == p.bucket || op*plannerExtendFactor > st || !p.widenAllowed(up) {
		return false
	}
	if !p.unknown(up) && p.mem.cost[up] >= p.mem.cost[p.bucket] {
		return false
	}
	p.setBucket(up)
	return true
}

// record folds a measured cost rate into bucket b. A fresh or stale
// bucket takes the sample outright; a live one averages, so one noisy
// window cannot flip a settled decision.
func (p *Planner) record(b int, rate float64) {
	m := p.mem
	m.flushes++
	if m.seen[b] == 0 || m.flushes-m.seen[b] > plannerStaleWindows {
		m.cost[b] = rate
	} else {
		// Heavy memory: wall samples carry scheduler and cache noise,
		// and a settled decision should take several consistent
		// samples to overturn, not one lucky window.
		m.cost[b] = 0.75*m.cost[b] + 0.25*rate
	}
	m.seen[b] = m.flushes
}

// unknown reports whether bucket b has no usable cost sample: never
// measured, or not measured for plannerStaleWindows flushes. Staleness
// is purely age-based, and that matters in both directions. It must not
// be conditioned on regime markers like state-DD drift: Grover holds a
// constant ~36-node state for the whole run, so under a drift condition
// one unlucky sample (a GC pause landing in an early w=4 window) would
// block the up-path forever and trap the planner at the sequential end
// of a circuit whose true optimum is w=4. And it must not be *hastened*
// by such markers either: Shor's state DD oscillates ~3x within a
// segment without the cost ranking moving at all, and every false
// "unknown" buys a probe ride at a window the table already priced as
// a loss. Age alone re-prices every neighbouring size at a bounded
// ~1/plannerStaleWindows overhead.
func (p *Planner) unknown(b int) bool {
	return p.mem.seen[b] == 0 || p.mem.flushes-p.mem.seen[b] > plannerStaleWindows
}

// nextBucket picks the window size for the next segment, moving
// relative to bucket b (the realized size of the window just
// measured). Widening requires the window to have completed cleanly
// (reason "window"), the accumulator to have stayed within the state
// bound, and no recent blow-up ceiling — then it proceeds into unknown
// sizes outright (that is how combine-friendly circuits climb to deep
// windows) or onto known-cheaper ones. Otherwise unexplored narrower
// sizes are probed (narrowing is the safe direction — Eq. 1 is the
// baseline), and among known costs any gain moves the window down
// while moving up demands a plannerUpMargin improvement.
func (p *Planner) nextBucket(b int) int {
	maxB := p.maxBucket()
	up, down := min(b+1, maxB), max(b-1, 0)
	clean := p.decision.Reason == "window"
	withinBound := p.decision.OpNodes <= p.decision.StateNodes
	if clean && withinBound && up > b && p.widenAllowed(up) &&
		(p.unknown(up) || p.mem.cost[up] < plannerUpMargin*p.mem.cost[b]) {
		// Unexplored territory is climbed x4 per flush (two buckets), so
		// a combine-friendly circuit reaches deep windows in a handful
		// of flushes; known costs are walked one bucket at a time.
		if up2 := min(b+2, maxB); up2 > up && p.unknown(up) &&
			p.unknown(up2) && p.widenAllowed(up2) {
			return up2
		}
		return up
	}
	if down < b && p.unknown(down) {
		return down
	}
	best := b
	if down < b && p.mem.cost[down] < p.mem.cost[best] {
		best = down
	}
	if up > b && !p.unknown(up) && withinBound && p.widenAllowed(up) &&
		p.mem.cost[up] < plannerUpMargin*p.mem.cost[best] {
		best = up
	}
	return best
}

// setBucket sets the current bucket and its window size (1<<bucket,
// capped at MaxWindow, which need not be a power of two).
func (p *Planner) setBucket(b int) {
	p.bucket = b
	p.window = max(min(1<<b, p.maxWindow()), 1)
}

func (p *Planner) maxBucket() int {
	return min(bits.Len(uint(p.maxWindow()))-1, plannerBuckets-1)
}

// bucketFor maps a window size to its bucket: the largest power of two
// not exceeding it.
func bucketFor(w int) int {
	return bits.Len(uint(max(w, 1))) - 1
}

// plannerEffort is the planner's scalar work metric for a probe delta:
// kernel recursions plus plannerCreateWeight x fresh node internings
// (see plannerCreateWeight for why creations are weighted in).
func plannerEffort(d dd.Probe) float64 {
	return float64(d.Recursions() + plannerCreateWeight*d.NodesCreated)
}

// takeDecision hands the pending flush decision to the runner for
// event/metric emission, at most once per flush.
func (p *Planner) takeDecision() (PlannerDecision, bool) {
	if !p.pending {
		return PlannerDecision{}, false
	}
	p.pending = false
	return p.decision, true
}

// localityOf is the static cost model's input: the fraction of
// consecutive gate pairs sharing a qubit over the upcoming gates
// (capped at plannerLocalitySample), or -1 when there are not enough
// gates to measure. It splits the circuit families cleanly: supremacy
// random circuits measure 0.00 (layers of disjoint gates), Grover
// ~0.15 (disjoint H layers punctuated by all-qubit oracles), Shor's
// modular arithmetic ~0.76 (every gate touches the same work
// registers).
func localityOf(c *circuit.Circuit, startGate int) float64 {
	if c == nil || startGate < 0 || len(c.Gates)-startGate < 2 {
		return -1
	}
	n := min(plannerLocalitySample, len(c.Gates)-startGate)
	shared := 0
	for i := startGate + 1; i < startGate+n; i++ {
		if gatesOverlap(&c.Gates[i-1], &c.Gates[i]) {
			shared++
		}
	}
	return float64(shared) / float64(n-1)
}

// initialWindow is the windowed mode's starting window. Locality has
// already made the coarse call (ride vs windowed, see bindRun); within
// windowed mode it makes one more: high-locality circuits start a step
// narrower, because their gates chain on the same registers and the
// narrow end is where their cost table ends up anyway — starting there
// skips a descent that segmented simulations would otherwise repeat
// every segment. The cost table does the fine placement from there.
func (p *Planner) initialWindow(loc float64) int {
	w := plannerInitWindow
	if loc >= plannerNarrowLocality {
		w = plannerNarrowInit
	}
	return max(1, min(w, p.maxWindow()))
}

// gatesOverlap reports whether two gates act on a common qubit.
func gatesOverlap(a, b *circuit.Gate) bool {
	if a.Target == b.Target {
		return true
	}
	for _, ca := range a.Controls {
		if ca.Qubit == b.Target {
			return true
		}
		for _, cb := range b.Controls {
			if ca.Qubit == cb.Qubit {
				return true
			}
		}
	}
	for _, cb := range b.Controls {
		if cb.Qubit == a.Target {
			return true
		}
	}
	return false
}

// runBound is implemented by strategies that carry per-run adaptive
// state (the Planner). RunContext clones such a strategy for the run,
// binds the clone to the engine and circuit, and reports every applied
// operation; a corruption repair re-binds to the replacement engine.
type runBound interface {
	Strategy
	cloneForRun() runBound
	bindRun(eng *dd.Engine, c *circuit.Circuit, startGate int)
	noteApply(gate int)
}

// decisionTaker is implemented by strategies whose flush decisions are
// observable (the Planner): after ShouldApply returns true the runner
// collects the pending decision for event/metric emission.
type decisionTaker interface {
	takeDecision() (PlannerDecision, bool)
}
