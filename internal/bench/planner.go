package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// The planner experiment answers the question ROADMAP item 4 poses: can
// the planner (core.Planner), which picks one fixed rule per run from
// gate locality, match the best fixed strategy per circuit family
// without being told which one that is? Every workload of the Fig. 8/9
// mix runs under every fixed strategy and under the planner; the
// planner's time is compared per workload against the best and worst
// fixed cell.

// PlannerCell is one workload×strategy measurement of the planner
// sweep.
type PlannerCell struct {
	Workload string
	Strategy string
	// Planner marks the planner column (the comparison target).
	Planner bool
	Seconds float64
	Mark    string // "", "timeout", "oom", "canceled", "error"
}

// PlannerSummary compares the planner against the fixed strategies on
// one workload.
type PlannerSummary struct {
	Workload string
	// Rule names the fixed rule the planner picked (the distinct
	// rules joined by "+" when a multi-segment workload's runs
	// differ).
	Rule string
	// PlannerSeconds is the planner cell's time (math.Inf(1) when the
	// planner cell did not finish; Mark says why).
	PlannerSeconds float64
	PlannerMark    string
	// Best/Worst are the fastest and slowest fixed strategies. A fixed
	// cell that did not finish scores its elapsed wall time (for
	// timeouts, the full budget) — a lower bound on its true cost.
	BestStrategy  string
	BestSeconds   float64
	WorstStrategy string
	WorstSeconds  float64
}

// VsBest returns planner/best (how far the planner is from the best
// fixed strategy; 1.0 = matched it, lower = beat it).
func (s PlannerSummary) VsBest() float64 {
	if s.BestSeconds <= 0 {
		return 1
	}
	return s.PlannerSeconds / s.BestSeconds
}

// WorstVsPlanner returns worst/planner (how much the worst fixed
// strategy loses to the planner).
func (s PlannerSummary) WorstVsPlanner() float64 {
	if s.PlannerSeconds <= 0 {
		return math.Inf(1)
	}
	return s.WorstSeconds / s.PlannerSeconds
}

// PlannerResult is the full sweep plus its per-workload summaries.
type PlannerResult struct {
	Cells     []PlannerCell
	Summaries []PlannerSummary
}

// plannerStrategies are the fixed-strategy columns the planner is
// judged against — every strategy family at its default
// parameterisation, including the deliberately bad combine-all
// extreme.
func plannerStrategies() []identityStrategy {
	return []identityStrategy{
		{name: "sequential", strategy: core.Sequential{}},
		{name: "k-operations (k=4)", strategy: core.KOperations{K: 4}},
		{name: "max-size (s=128)", strategy: core.MaxSize{SMax: 128}},
		{name: "combine-all", strategy: core.CombineAll{}},
	}
}

// PlannerSweep measures every Fig. 8/9 workload under every fixed
// strategy and under the planner, serially on fresh engines.
//
// Repetitions are interleaved rep-major (every cell once, then every
// cell again) instead of cell-major (all reps of one cell back to
// back). The sweep's verdict is a ratio between cells, and machine
// load drifts on the scale of whole cells: run cell-major, a slow
// epoch lands entirely inside whichever cell owns that wall-clock
// span and its minimum is poisoned across all its reps at once.
// Interleaved, a slow epoch taxes one rep of many cells, and every
// cell keeps reps from the quiet epochs — the per-cell minima are
// taken under matched conditions. Within a rep the planner cell runs
// first: combine-all (always in the fixed set, frequently a timeout)
// retires with a multi-GB heap whose allocator residue slows whatever
// follows, and the comparison target must not systematically inherit
// it. Cells that die (timeout/oom) are not retried on later reps —
// re-running them would re-pay the full budget per rep for a cell
// whose verdict cannot change.
func PlannerSweep(cfg Config) (*PlannerResult, error) {
	ws := FigWorkloads(cfg.Full)
	res := &PlannerResult{}
	if len(ws) > 0 {
		// One small untimed run before any timed cell: process warm-up
		// (code paging, the heap's first growth) must not be billed to
		// whichever cell happens to run first.
		_ = GroverWorkload(10).Run(core.Options{Strategy: core.Sequential{}})
	}
	fixed := plannerStrategies()
	// slot [workload][column]: column 0 is the planner, 1.. the fixed
	// strategies. Each slot keeps the minimum over its clean reps.
	type slot struct {
		m   Measurement
		set bool
	}
	cells := make([][]slot, len(ws))
	rules := make([]ruleCapture, len(ws))
	for i := range cells {
		cells[i] = make([]slot, 1+len(fixed))
	}
	oneRep := cfg
	oneRep.Reps = 1
	for rep := 0; rep < cfg.reps(); rep++ {
		for wi, w := range ws {
			for col := 0; col <= len(fixed); col++ {
				s := &cells[wi][col]
				if s.set && s.m.Mark() != "" {
					continue
				}
				opt := core.Options{Strategy: core.Planner{}, EventSink: &rules[wi], Metrics: cfg.Metrics}
				name := "planner"
				if col > 0 {
					opt = core.Options{Strategy: fixed[col-1].strategy, Metrics: cfg.Metrics}
					name = fixed[col-1].name
				}
				m := Time(w, opt, oneRep)
				if m.Err != nil && m.Mark() == "error" {
					return nil, fmt.Errorf("bench: planner sweep: %s/%s: %w", w.Name, name, m.Err)
				}
				if !s.set || (m.Mark() == "" && m.Seconds < s.m.Seconds) {
					s.m = m
				}
				s.set = true
			}
		}
	}
	for wi, w := range ws {
		sum := PlannerSummary{Workload: w.Name, Rule: rules[wi].String(), BestSeconds: math.Inf(1)}
		for col, is := range fixed {
			m := cells[wi][col+1].m
			secs := effectiveSeconds(m, cfg)
			res.Cells = append(res.Cells, PlannerCell{
				Workload: w.Name, Strategy: is.name, Seconds: m.Seconds, Mark: m.Mark(),
			})
			// Marked cells never win "best": they did not finish.
			if m.Mark() == "" && secs < sum.BestSeconds {
				sum.BestSeconds, sum.BestStrategy = secs, is.name
			}
			if secs > sum.WorstSeconds {
				sum.WorstSeconds, sum.WorstStrategy = secs, is.name
			}
		}
		pm := cells[wi][0].m
		res.Cells = append(res.Cells, PlannerCell{
			Workload: w.Name, Strategy: "planner", Planner: true,
			Seconds: pm.Seconds, Mark: pm.Mark(),
		})
		sum.PlannerMark = pm.Mark()
		sum.PlannerSeconds = pm.Seconds
		if sum.PlannerMark != "" {
			sum.PlannerSeconds = math.Inf(1)
		}
		res.Summaries = append(res.Summaries, sum)
	}
	return res, nil
}

// ruleCapture collects the rule names of a workload's planner events.
type ruleCapture []string

// Emit implements obs.Sink.
func (r *ruleCapture) Emit(e obs.Event) {
	if e.Kind == obs.KindPlanner && !slices.Contains(*r, e.Decision) {
		*r = append(*r, e.Decision)
	}
}

func (r ruleCapture) String() string { return strings.Join(r, "+") }

// effectiveSeconds scores a measurement for best/worst comparison: a
// clean run scores its wall time; a run that died scores the larger of
// its elapsed time and the budget — a lower bound on what it would
// have cost.
func effectiveSeconds(m Measurement, cfg Config) float64 {
	if m.Mark() == "" {
		return m.Seconds
	}
	return math.Max(m.Seconds, cfg.Budget.Seconds())
}

// RenderPlanner renders the sweep table and the per-workload verdict
// lines.
func RenderPlanner(r *PlannerResult) string {
	var sb strings.Builder
	sb.WriteString("Strategy planner vs. every fixed strategy (fresh engine per cell; the planner\n")
	sb.WriteString("picks one fixed rule per run from gate locality — it is told nothing about the\n")
	sb.WriteString("circuit family)\n\n")
	fmt.Fprintf(&sb, "%-18s %-20s %10s\n", "Benchmark", "Strategy", "time")
	last := ""
	for _, c := range r.Cells {
		if c.Workload != last && last != "" {
			sb.WriteString("\n")
		}
		last = c.Workload
		fmt.Fprintf(&sb, "%-18s %-20s %10s\n", c.Workload, c.Strategy, fmtCellSeconds(c.Seconds, c.Mark))
	}
	sb.WriteString("\nPer-benchmark verdict (planner/best <= 1.10 everywhere and worst/planner >= 2\n")
	sb.WriteString("somewhere is the planner pulling its weight):\n\n")
	fmt.Fprintf(&sb, "%-18s %-18s %10s %-20s %10s %-20s %12s %14s\n",
		"Benchmark", "planner rule", "planner", "best fixed", "t-best", "worst fixed", "planner/best", "worst/planner")
	for _, s := range r.Summaries {
		planner := fmtCellSeconds(s.PlannerSeconds, s.PlannerMark)
		fmt.Fprintf(&sb, "%-18s %-18s %10s %-20s %10s %-20s %12.2f %14.1f\n",
			s.Workload, s.Rule, planner, s.BestStrategy, fmtCellSeconds(s.BestSeconds, ""),
			s.WorstStrategy, s.VsBest(), s.WorstVsPlanner())
	}
	return sb.String()
}

// PlannerCSV renders the sweep cells as CSV.
func PlannerCSV(r *PlannerResult) string {
	var sb strings.Builder
	sb.WriteString("workload,strategy,planner,seconds,mark\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&sb, "%s,%s,%t,%s,%s\n",
			csvEscape(c.Workload), csvEscape(c.Strategy), c.Planner, csvFloat(c.Seconds), c.Mark)
	}
	return sb.String()
}
