// Package obs is the observability layer of the simulator: a
// structured event stream with pluggable sinks, and a metrics registry
// of counters, gauges and fixed-bucket histograms.
//
// The paper's entire argument is a cost model — DD node counts and
// cache behaviour, not matrix dimension, decide whether combining
// gates beats gate-at-a-time application — so the quantities that
// matter are per-step trajectories, not end-of-run aggregates. The
// runner (internal/core) emits one Event per applied operation
// carrying wall time, top-level multiplication counts, live node
// counts and cache/GC deltas; sinks consume them as an in-memory ring
// (Ring), a JSONL file (JSONL), or a human-readable progress feed
// (Progress). The Registry snapshots as JSON and as Prometheus text
// exposition for scraping.
//
// The package depends only on the standard library and knows nothing
// about the DD engine: internal/core bridges engine callbacks
// (dd.EngineObserver) into events and metrics, so the engine's
// uninstrumented hot path stays a single nil-check branch.
package obs

import (
	"fmt"
	"reflect"
	"time"
)

// Kind classifies an Event.
type Kind uint8

const (
	// KindRunStart opens a run: circuit name, total gates, start gate.
	KindRunStart Kind = iota + 1
	// KindStep is one applied operation (matrix-vector application),
	// including the gate-by-gate steps of a budget-abort replay.
	KindStep
	// KindGC is one completed engine garbage collection.
	KindGC
	// KindCheckpoint marks a checkpoint handed to the caller.
	KindCheckpoint
	// KindAbort marks a run abort (deadline, budget, cancellation,
	// injected fault, recovered panic); Event.Abort carries the kind.
	KindAbort
	// KindRunEnd closes a run and carries the run totals.
	KindRunEnd
	// KindVerify is one integrity verification pass (audit, norm drift,
	// unitarity, dense-oracle comparison); Event.Check names the failing
	// check, empty when the pass was clean.
	KindVerify
	// KindPlanner is the strategy planner's (core.Planner) one decision
	// of a run, emitted after run_start: Event.Decision names the fixed
	// flush rule it picked ("k-operations(k=4)", "max-size(s=128)" or
	// "op>2*state").
	KindPlanner
	// KindReorder is one dynamic variable-reordering pass (sifting):
	// Event.Swaps counts adjacent level swaps, Event.SiftPasses the
	// variables sifted, and Event.NodesBefore/NodesAfter the state DD
	// size around the pass.
	KindReorder
	// KindPressure is one action of the degradation ladder:
	// Event.Level is the pressure band ("low", "high", "critical"),
	// Event.Rung the ladder rung taken (1–5),
	// Event.Action what was done ("gc", "flush", "replay", "sift",
	// "approx", "park"; a "replay" is rung 2's answer to a
	// node-budget abort and needs no soft budget),
	// Event.NodesBefore/NodesAfter the live-node counts around the
	// action, and Event.Fidelity the fidelity bound of an approximation
	// rung.
	KindPressure
)

var kindNames = [...]string{
	KindRunStart:   "run_start",
	KindStep:       "step",
	KindGC:         "gc",
	KindCheckpoint: "checkpoint",
	KindAbort:      "abort",
	KindRunEnd:     "run_end",
	KindVerify:     "verify",
	KindPlanner:    "planner",
	KindReorder:    "reorder",
	KindPressure:   "pressure",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a wire name back into a Kind.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return fmt.Errorf("obs: invalid event kind %s", s)
	}
	s = s[1 : len(s)-1]
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one structured observation of a simulation run. Fields not
// meaningful for a kind are zero and omitted from JSON. Counter-like
// fields (multiplications, cache traffic, GC activity) are deltas over
// the step on KindStep events and run totals on KindRunEnd.
type Event struct {
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`
	// TimeUnixNano is the wall-clock emission time.
	TimeUnixNano int64 `json:"time_unix_ns"`
	// Gate is the gate index one past the last gate reflected in the
	// state at emission time.
	Gate int `json:"gate"`

	// Circuit and TotalGates identify the run (run_start / run_end).
	Circuit    string `json:"circuit,omitempty"`
	TotalGates int    `json:"total_gates,omitempty"`

	// WallNS is the duration of the step (KindStep) or of the whole
	// run (KindRunEnd), in nanoseconds.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Combined is the number of gates folded into the applied
	// operation matrix (KindStep).
	Combined int `json:"combined,omitempty"`
	// OpNodes and StateNodes are the DD sizes of the applied operation
	// matrix and of the state after the step.
	OpNodes    int `json:"op_nodes,omitempty"`
	StateNodes int `json:"state_nodes,omitempty"`
	// VLive and MLive are the live unique-table node counts at
	// emission time.
	VLive int `json:"v_live,omitempty"`
	MLive int `json:"m_live,omitempty"`

	EngineCounters

	// GCFreed is the number of nodes reclaimed (KindGC only).
	GCFreed int `json:"gc_freed,omitempty"`

	// PeakNodes is a run total (KindRunEnd).
	PeakNodes int `json:"peak_nodes,omitempty"`

	// Block metadata for DD-repeating steps.
	FromBlock  bool   `json:"from_block,omitempty"`
	Block      string `json:"block,omitempty"`
	BlockReuse bool   `json:"block_reuse,omitempty"`

	// Abort is the failure kind ("deadline", "budget", "canceled",
	// "injected", "panic", "corruption") on KindAbort and on the
	// KindRunEnd of an aborted run; empty on clean runs.
	Abort string `json:"abort,omitempty"`

	// Check names the integrity check a KindVerify event failed
	// ("audit", "norm", "unitarity", "oracle"); empty on a clean
	// verification pass. A failed pass ends the run as "corruption".
	Check string `json:"check,omitempty"`

	// Decision names the flush rule a KindPlanner event reports.
	Decision string `json:"decision,omitempty"`

	// Dynamic reordering telemetry (KindReorder; Swaps and SiftPasses
	// are also run totals on KindRunEnd). NodesBefore/NodesAfter double
	// as the live-node counts around a KindPressure action.
	Swaps       uint64 `json:"swaps,omitempty"`
	SiftPasses  uint64 `json:"sift_passes,omitempty"`
	NodesBefore int    `json:"nodes_before,omitempty"`
	NodesAfter  int    `json:"nodes_after,omitempty"`

	// Pressure-governor telemetry (KindPressure; see core's degradation
	// ladder). Level is the pressure band, Rung the ladder rung, Action
	// the measure taken, Fidelity the bound of an approximation rung.
	// Degradations and FidelityBound are run totals (KindRunEnd): the
	// number of ladder actions taken and the cumulative fidelity lower
	// bound (omitted when the run stayed exact).
	Level         string  `json:"level,omitempty"`
	Rung          int     `json:"rung,omitempty"`
	Action        string  `json:"action,omitempty"`
	Fidelity      float64 `json:"fidelity,omitempty"`
	Degradations  int     `json:"degradations,omitempty"`
	FidelityBound float64 `json:"fidelity_bound,omitempty"`
}

// EngineCounters are an Event's engine-counter fields: deltas over the
// step on KindStep, run totals on KindRunEnd. Each JSON tag is the name
// of the dd counter-table row the field carries.
type EngineCounters struct {
	// Top-level multiplication counts (the paper's Eq. 1 vs Eq. 2
	// trade) and engine cache/allocation/GC activity.
	MatVecMuls uint64 `json:"matvec_muls,omitempty"`
	MatMatMuls uint64 `json:"matmat_muls,omitempty"`
	// MulRecursions counts multiplication-kernel recursion steps and
	// IdentitySkipsMV/MM the identity short-circuits taken inside them
	// (see dd.Stats); together they show how much recursion the
	// identity-aware kernels avoided per step / per run.
	MulRecursions   uint64 `json:"mul_recursions,omitempty"`
	IdentitySkipsMV uint64 `json:"identity_skips_mv,omitempty"`
	IdentitySkipsMM uint64 `json:"identity_skips_mm,omitempty"`
	CacheLookups    uint64 `json:"cache_lookups,omitempty"`
	CacheHits       uint64 `json:"cache_hits,omitempty"`
	NodesCreated    uint64 `json:"nodes_created,omitempty"`
	GCs             uint64 `json:"gcs,omitempty"`
	GCPauseNS       int64  `json:"gc_pause_ns,omitempty"`
}

// Step returns the field that carries the i-th dd.StepCounters row:
// EngineCounters declares one field per step row first, in table order
// and tagged with the row name, then the GC activity.
func (c *EngineCounters) Step(i int) *uint64 {
	return reflect.ValueOf(c).Elem().Field(i).Addr().Interface().(*uint64)
}

// Time returns the emission time as a time.Time.
func (e Event) Time() time.Time { return time.Unix(0, e.TimeUnixNano) }

// Wall returns the step/run duration.
func (e Event) Wall() time.Duration { return time.Duration(e.WallNS) }
