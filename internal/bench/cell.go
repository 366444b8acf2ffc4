package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/dd"
	"repro/internal/obs"
)

// CellMetrics is the per-cell observability snapshot an experiment
// carries alongside its timing: the run totals harvested from the
// closing run_end events of the measured workload (see internal/obs
// and runEndCapture). Aborted cells (timeout / oom) still carry the
// partial run's totals, which is exactly what explains *why* the cell
// failed.
type CellMetrics struct {
	// Valid reports whether a run_end event was captured; runs that
	// fail before the simulation starts (config errors) have none.
	Valid   bool
	Seconds float64

	// EngineCounters are the run's engine-counter totals.
	obs.EngineCounters

	PeakNodes  int
	StateNodes int // final state DD size

	// Degradations counts the degradation ladder's actions during the
	// run (budget-abort replays included); FidelityBound is the run's
	// cumulative fidelity lower bound (0 for runs the ladder never
	// touched).
	Degradations  int
	FidelityBound float64

	// Abort is the failure kind of an aborted run ("" for clean runs).
	Abort string
}

// CacheHitRate returns hits/lookups, NaN when the caches were never
// consulted — renderers must show "-" or an empty cell, not 0%.
func (c CellMetrics) CacheHitRate() float64 {
	if c.CacheLookups == 0 {
		return math.NaN()
	}
	return float64(c.CacheHits) / float64(c.CacheLookups)
}

// runEndCapture is the sink the harness attaches to every measured
// run. A multi-run workload (shor's semiclassical loop) emits one
// run_end per core run, each carrying that run's totals: the capture
// sums their engine counters and degradations and keeps the largest
// peak, and takes the final state size, fidelity bound and abort from
// the last one, the run that produced the cell's outcome.
type runEndCapture struct {
	last         obs.Event
	counters     obs.EngineCounters
	peakNodes    int
	degradations int
	ok           bool
}

func (s *runEndCapture) Emit(e obs.Event) {
	if e.Kind != obs.KindRunEnd {
		return
	}
	for i := range dd.StepCounters {
		*s.counters.Step(i) += *e.Step(i)
	}
	s.counters.GCs += e.GCs
	s.counters.GCPauseNS += e.GCPauseNS
	s.peakNodes = max(s.peakNodes, e.PeakNodes)
	s.degradations += e.Degradations
	s.last, s.ok = e, true
}

// cell converts the captured run_end events into a CellMetrics.
func (s *runEndCapture) cell(seconds float64) CellMetrics {
	if !s.ok {
		return CellMetrics{Seconds: seconds}
	}
	return CellMetrics{
		Valid:          true,
		Seconds:        seconds,
		EngineCounters: s.counters,
		PeakNodes:      s.peakNodes,
		StateNodes:     s.last.StateNodes,
		Degradations:   s.degradations,
		FidelityBound:  s.last.FidelityBound,
		Abort:          s.last.Abort,
	}
}

// metricsCSVHeader is the long-format per-cell telemetry schema shared
// by the sweep experiments: one column per dd step counter, then the
// run-level columns.
var metricsCSVHeader = "workload,param,seconds,mark," +
	strings.Join(stepColumns(func(i int) string { return dd.StepCounters[i].Name }, "cache_hit_rate"), ",") +
	",gcs,gc_pause_seconds,peak_nodes,state_nodes,degradations,fidelity_bound\n"

// stepColumns renders cell(i) for each dd.StepCounters row, with rate,
// the derived cache hit rate, right after cache_hits.
func stepColumns(cell func(i int) string, rate string) []string {
	var out []string
	for i, c := range dd.StepCounters {
		out = append(out, cell(i))
		if c.Name == "cache_hits" {
			out = append(out, rate)
		}
	}
	return out
}

func appendMetricsRow(sb *strings.Builder, workload, param, mark string, c CellMetrics) {
	if !c.Valid {
		return
	}
	rate := ""
	if hr := c.CacheHitRate(); !math.IsNaN(hr) {
		rate = fmt.Sprintf("%.4f", hr)
	}
	bound := ""
	if c.FidelityBound > 0 {
		bound = fmt.Sprintf("%.6g", c.FidelityBound)
	}
	counters := stepColumns(func(i int) string { return strconv.FormatUint(*c.Step(i), 10) }, rate)
	fmt.Fprintf(sb, "%s,%s,%s,%s,%s,%d,%s,%d,%d,%d,%s\n",
		csvEscape(workload), csvEscape(param), csvFloat(c.Seconds), mark,
		strings.Join(counters, ","),
		c.GCs, csvFloat(float64(c.GCPauseNS)/1e9),
		c.PeakNodes, c.StateNodes,
		c.Degradations, bound)
}

// MetricsCSV renders the sweep's per-cell telemetry in long format —
// one row per measured cell, baseline rows first (param "baseline").
// Returns "" for results recorded before cell metrics existed.
func (r *SweepResult) MetricsCSV() string {
	if r.Cells == nil && r.BaselineCells == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(metricsCSVHeader)
	for wi, name := range r.Names {
		if wi < len(r.BaselineCells) {
			appendMetricsRow(&sb, name, "baseline", r.baselineMark(wi), r.BaselineCells[wi])
		}
		if wi >= len(r.Cells) {
			continue
		}
		for pi, p := range r.Params {
			if pi < len(r.Cells[wi]) {
				appendMetricsRow(&sb, name, fmt.Sprintf("%d", p), r.mark(wi, pi), r.Cells[wi][pi])
			}
		}
	}
	return sb.String()
}
