package core

import (
	"errors"
	"time"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/obs"
)

// runObserver bridges one simulation run to the obs layer: it emits
// structured events into Options.EventSink, records telemetry into
// Options.Metrics, collects the Result.Trace points, and receives the
// engine's low-level callbacks (dd.EngineObserver) for GC and node
// telemetry. It is nil — and completely free — unless the run asked
// for any of the three.
type runObserver struct {
	sink   obs.Sink
	met    *runMetrics
	eng    *dd.Engine
	record bool
	trace  []TracePoint

	seq     uint64
	started time.Time
	circuit string
	total   int
	applied int // gate index of the last emitted step

	prev dd.Stats // engine snapshot at the previous step boundary (deltas)
}

// runMetrics holds the instruments a run updates. Names are stable API
// (documented in DESIGN.md); re-registering on a shared registry
// returns the same instruments, so sweeps aggregate across runs.
type runMetrics struct {
	steps *obs.Counter
	// engine holds dd_<name>_total for each dd.StepCounters row, in
	// table order.
	engine                   []*obs.Counter
	cacheInvalidations       *obs.Counter
	gcs, aborts              *obs.Counter
	checkpoints              *obs.Counter
	verifications            *obs.Counter
	verifyFailures           *obs.Counter
	plannerDecisions         *obs.Counter
	reorders                 *obs.Counter
	reorderSwaps             *obs.Counter
	reorderSiftPasses        *obs.Counter
	pressureActions          *obs.Counter
	pressureParks            *obs.Counter
	pressureApprox           *obs.Counter
	pressureLevel            *obs.Gauge
	pressureFidelity         *obs.Gauge
	liveNodes                *obs.Gauge
	reorderNodesBefore       *obs.Gauge
	reorderNodesAfter        *obs.Gauge
	stepSeconds, gcPauseSecs *obs.Histogram
	stateNodes, opNodes      *obs.Histogram
}

func newRunMetrics(r *obs.Registry) *runMetrics {
	nodeBuckets := obs.ExponentialBuckets(1, 4, 12)
	latBuckets := obs.ExponentialBuckets(1e-6, 4, 12)
	gcBuckets := obs.ExponentialBuckets(1e-6, 4, 10)
	steps := r.Counter("dd_steps_total", "Applied operations (top-level matrix-vector steps).")
	var engine []*obs.Counter
	var invalidations *obs.Counter
	for _, c := range dd.StepCounters {
		engine = append(engine, r.Counter("dd_"+c.Name+"_total", c.Help))
		if c.Name == "cache_hits" {
			// Registration order is exposition order: the invalidations
			// family has always followed the cache families.
			invalidations = r.Counter("dd_cache_invalidations_total", "Compute-cache invalidations (GC, aborts, explicit clears).")
		}
	}
	return &runMetrics{
		steps:              steps,
		engine:             engine,
		cacheInvalidations: invalidations,
		gcs:                r.Counter("dd_gc_total", "Engine garbage collections."),
		aborts:             r.Counter("dd_aborts_total", "Runs aborted (deadline, budget, cancellation, injection, panic)."),
		checkpoints:        r.Counter("dd_checkpoints_total", "Checkpoints handed to the caller."),
		verifications:      r.Counter("dd_verifications_total", "Integrity verification passes."),
		verifyFailures:     r.Counter("dd_verify_failures_total", "Verification passes that detected corruption."),
		plannerDecisions:   r.Counter("dd_planner_decisions_total", "Planner rule choices (one per run under the planner)."),
		reorders:           r.Counter("dd_reorder_total", "Dynamic variable-reordering (sifting) passes."),
		reorderSwaps:       r.Counter("dd_reorder_swaps_total", "Adjacent level swaps performed by dynamic reordering."),
		reorderSiftPasses:  r.Counter("dd_reorder_sift_passes_total", "Variables sifted by dynamic reordering."),
		pressureActions:    r.Counter("dd_pressure_actions_total", "Degradation-ladder actions taken by the memory-pressure governor."),
		pressureParks:      r.Counter("dd_pressure_parks_total", "Runs parked behind a checkpoint by the pressure governor (rung 5)."),
		pressureApprox:     r.Counter("dd_pressure_approx_total", "Fidelity-bounded state approximations taken under pressure (rung 4)."),
		pressureLevel:      r.Gauge("dd_pressure_level", "Pressure band of the governor's last action (1 low, 2 high, 3 critical)."),
		pressureFidelity:   r.Gauge("dd_pressure_fidelity_bound_ppm", "Cumulative fidelity lower bound after approximations, in parts per million."),
		liveNodes:          r.Gauge("dd_live_nodes", "Live nodes in the unique tables (vector + matrix)."),
		reorderNodesBefore: r.Gauge("dd_reorder_nodes_before", "State DD size entering the last sifting pass."),
		reorderNodesAfter:  r.Gauge("dd_reorder_nodes_after", "State DD size leaving the last sifting pass."),
		stepSeconds:        r.Histogram("dd_step_seconds", "Wall time per applied operation.", latBuckets),
		gcPauseSecs:        r.Histogram("dd_gc_pause_seconds", "Engine GC pause durations.", gcBuckets),
		stateNodes:         r.Histogram("dd_state_nodes", "State DD size after each applied operation.", nodeBuckets),
		opNodes:            r.Histogram("dd_op_nodes", "Operation DD size of each applied matrix.", nodeBuckets),
	}
}

// newRunObserver returns nil when the run requests no observability at
// all — the runner then skips every per-step size traversal and clock
// read exactly as before.
func newRunObserver(opt Options, eng *dd.Engine) *runObserver {
	if opt.EventSink == nil && opt.Metrics == nil && !opt.RecordTrace {
		return nil
	}
	o := &runObserver{sink: opt.EventSink, eng: eng, record: opt.RecordTrace}
	if opt.Metrics != nil {
		o.met = newRunMetrics(opt.Metrics)
	}
	return o
}

// emit stamps and delivers one event; a nil sink drops it.
func (o *runObserver) emit(e obs.Event) {
	if o.sink == nil {
		return
	}
	o.seq++
	e.Seq = o.seq
	e.TimeUnixNano = time.Now().UnixNano()
	e.VLive = o.eng.VNodeCount()
	e.MLive = o.eng.MNodeCount()
	o.sink.Emit(e)
}

func (o *runObserver) runStart(c *circuit.Circuit, startGate int) {
	o.started = time.Now()
	o.circuit = c.Name
	o.total = len(c.Gates)
	o.applied = startGate
	o.prev = o.eng.Stats()
	o.emit(obs.Event{Kind: obs.KindRunStart, Gate: startGate, Circuit: c.Name, TotalGates: o.total})
}

// stepInfo is what the runner knows about one applied operation.
type stepInfo struct {
	gate, combined      int
	opNodes, stateNodes int
	wall                time.Duration
	fromBlock           bool
	block               string
	reuse               bool
}

// step records one applied operation: trace point, metrics, and a
// KindStep event carrying the engine-counter deltas since the previous
// step (GC activity between steps is attributed to the following one).
func (o *runObserver) step(si stepInfo) {
	o.applied = si.gate
	if o.record {
		o.trace = append(o.trace, TracePoint{
			GateIndex:  si.gate,
			OpSize:     si.opNodes,
			StateSize:  si.stateNodes,
			Combined:   si.combined,
			FromBlock:  si.fromBlock,
			BlockName:  si.block,
			BlockReuse: si.reuse,
		})
	}
	cur := o.eng.Stats()
	delta := cur.Sub(o.prev)
	o.prev = cur
	if m := o.met; m != nil {
		m.steps.Inc()
		for i, c := range dd.StepCounters {
			m.engine[i].Add(c.Value(&delta))
		}
		m.stepSeconds.Observe(si.wall.Seconds())
		m.stateNodes.Observe(float64(si.stateNodes))
		m.opNodes.Observe(float64(si.opNodes))
		m.liveNodes.Set(int64(o.eng.VNodeCount() + o.eng.MNodeCount()))
	}
	o.emit(obs.Event{
		Kind:           obs.KindStep,
		Gate:           si.gate,
		WallNS:         si.wall.Nanoseconds(),
		Combined:       si.combined,
		OpNodes:        si.opNodes,
		StateNodes:     si.stateNodes,
		EngineCounters: eventCounters(&delta),
		FromBlock:      si.fromBlock,
		Block:          si.block,
		BlockReuse:     si.reuse,
	})
}

// eventCounters projects a Stats delta onto an event's engine counters:
// the dd.StepCounters rows plus the GC activity, which the obs layer
// also reports per collection.
func eventCounters(d *dd.Stats) obs.EngineCounters {
	var ec obs.EngineCounters
	for i, c := range dd.StepCounters {
		*ec.Step(i) = c.Value(d)
	}
	ec.GCs = d.GCs
	ec.GCPauseNS = d.GCPause.Nanoseconds()
	return ec
}

func (o *runObserver) checkpointEv(gate int) {
	if o.met != nil {
		o.met.checkpoints.Inc()
	}
	o.emit(obs.Event{Kind: obs.KindCheckpoint, Gate: gate})
}

// verifyEv records one verification pass; check names the failing
// check, empty when the pass was clean.
func (o *runObserver) verifyEv(gate int, check string) {
	if o.met != nil {
		o.met.verifications.Inc()
		if check != "" {
			o.met.verifyFailures.Inc()
		}
	}
	o.emit(obs.Event{Kind: obs.KindVerify, Gate: gate, Check: check})
}

// plannerEv records the planner's one decision of a run: the name of
// the fixed flush rule it picked.
func (o *runObserver) plannerEv(gate int, rule string) {
	if o.met != nil {
		o.met.plannerDecisions.Inc()
	}
	o.emit(obs.Event{Kind: obs.KindPlanner, Gate: gate, Decision: rule})
}

// reorderEv records one dynamic reordering (sifting) pass.
func (o *runObserver) reorderEv(gate int, sr dd.SiftResult) {
	if o.met != nil {
		o.met.reorders.Inc()
		o.met.reorderSwaps.Add(uint64(sr.Swaps))
		o.met.reorderSiftPasses.Add(uint64(sr.Passes))
		o.met.reorderNodesBefore.Set(int64(sr.Before))
		o.met.reorderNodesAfter.Set(int64(sr.After))
	}
	o.emit(obs.Event{
		Kind:        obs.KindReorder,
		Gate:        gate,
		Swaps:       uint64(sr.Swaps),
		SiftPasses:  uint64(sr.Passes),
		NodesBefore: sr.Before,
		NodesAfter:  sr.After,
	})
}

// pressureEv records one action of the degradation ladder, a
// budget-abort replay included.
func (o *runObserver) pressureEv(gate int, d Degradation) {
	if o.met != nil {
		o.met.pressureActions.Inc()
		o.met.pressureLevel.Set(int64(pressureLevelOrdinal(d.Level)))
		switch d.Action {
		case "park":
			o.met.pressureParks.Inc()
		case "approx":
			o.met.pressureApprox.Inc()
			o.met.pressureFidelity.Set(int64(d.Fidelity * 1e6))
		}
	}
	o.emit(obs.Event{
		Kind:        obs.KindPressure,
		Gate:        gate,
		Level:       d.Level,
		Rung:        d.Rung,
		Action:      d.Action,
		NodesBefore: d.LiveBefore,
		NodesAfter:  d.LiveAfter,
		Fidelity:    d.Fidelity,
	})
}

// pressureLevelOrdinal maps a level's wire name back to its ordinal
// for the gauge (0 for unknown names).
func pressureLevelOrdinal(level string) int {
	switch level {
	case "low":
		return 1
	case "high":
		return 2
	case "critical":
		return 3
	}
	return 0
}

// finish emits the abort event (for failed runs) and the closing
// run_end event carrying the run totals: totals is the run's counter
// delta on its engine.
func (o *runObserver) finish(applied, stateNodes, degradations int, fidelityBound float64, totals dd.Stats, err error) {
	abort := ""
	var re *RunError
	if errors.As(err, &re) {
		abort = re.Kind.String()
		if o.met != nil {
			o.met.aborts.Inc()
		}
		o.emit(obs.Event{Kind: obs.KindAbort, Gate: re.GateIndex, Abort: abort})
	}
	o.emit(obs.Event{
		Kind:           obs.KindRunEnd,
		Gate:           applied,
		Circuit:        o.circuit,
		TotalGates:     o.total,
		WallNS:         time.Since(o.started).Nanoseconds(),
		StateNodes:     stateNodes,
		EngineCounters: eventCounters(&totals),
		PeakNodes:      totals.PeakVNodes + totals.PeakMNodes,
		Abort:          abort,
		Swaps:          totals.ReorderSwaps,
		SiftPasses:     totals.SiftPasses,
		Degradations:   degradations,
		FidelityBound:  runEndFidelity(degradations, fidelityBound),
	})
}

// runEndFidelity keeps the run_end fidelity_bound field omitted (zero)
// for runs the governor never touched, and meaningful — even when
// still 1.0 — for degraded ones.
func runEndFidelity(degradations int, bound float64) float64 {
	if degradations == 0 && bound >= 1 {
		return 0
	}
	return bound
}

// --- dd.EngineObserver ---------------------------------------------------

// ObserveNode tracks the live-node gauge; it runs on the engine's node
// interning path, so it is a single atomic store and nothing else.
func (o *runObserver) ObserveNode(matrix bool, live int) {
	if o.met != nil {
		o.met.liveNodes.Set(int64(live))
	}
}

// ObserveGC emits a KindGC event anchored at the gate being processed.
func (o *runObserver) ObserveGC(gi dd.GCInfo) {
	if o.met != nil {
		o.met.gcs.Inc()
		o.met.gcPauseSecs.Observe(gi.Pause.Seconds())
		o.met.liveNodes.Set(int64(gi.VLive + gi.MLive))
	}
	o.emit(obs.Event{
		Kind:           obs.KindGC,
		Gate:           o.applied,
		EngineCounters: obs.EngineCounters{GCPauseNS: gi.Pause.Nanoseconds()},
		GCFreed:        gi.Freed,
	})
}

// ObserveCacheClear counts compute-cache invalidations.
func (o *runObserver) ObserveCacheClear() {
	if o.met != nil {
		o.met.cacheInvalidations.Inc()
	}
}
