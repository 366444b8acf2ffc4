package bench

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// cutLog records a workload's applied steps over every run it makes
// (gate-level Shor makes one run per phase-estimation round) and the
// rules its planner events name.
type cutLog struct {
	steps []obs.Event
	rules ruleCapture
}

func (l *cutLog) Emit(e obs.Event) {
	l.rules.Emit(e)
	if e.Kind == obs.KindStep {
		// Only the cut and the sizes it produced; counters and wall
		// time vary with what else ran on the engine.
		l.steps = append(l.steps, obs.Event{Gate: e.Gate, Combined: e.Combined, OpNodes: e.OpNodes, StateNodes: e.StateNodes})
	}
}

// stateRatio is the planner's low-locality rule written out on its
// own: flush once the operation DD has more than twice the state DD's
// nodes.
type stateRatio struct{}

func (stateRatio) Name() string { return "op>2*state" }

func (stateRatio) ShouldApply(_ int, opSize, stateSize func() int) bool {
	return opSize() > 2*stateSize()
}

// TestPlannerBandRules: on every row of the planner sweep — Grover,
// gate-level Shor segments and supremacy circuits — the planner picks
// its family's band and makes exactly the cuts of that band's fixed
// rule, step for step.
func TestPlannerBandRules(t *testing.T) {
	bands := map[string]core.Strategy{
		"grover":    core.MaxSize{SMax: 128},
		"shor":      core.KOperations{K: 4},
		"supremacy": stateRatio{},
	}
	for _, w := range FigWorkloads(false) {
		var planner, fixed cutLog
		if err := w.Run(core.Options{Strategy: core.Planner{}, EventSink: &planner}); err != nil {
			t.Fatalf("%s/planner: %v", w.Name, err)
		}
		var rule core.Strategy
		for family, st := range bands {
			if strings.HasPrefix(w.Name, family) {
				rule = st
			}
		}
		if len(planner.rules) != 1 || planner.rules[0] != rule.Name() {
			t.Fatalf("%s: planner picked %q, want %s", w.Name, planner.rules, rule.Name())
		}
		if err := w.Run(core.Options{Strategy: rule, EventSink: &fixed}); err != nil {
			t.Fatalf("%s/%s: %v", w.Name, rule.Name(), err)
		}
		if !slices.Equal(planner.steps, fixed.steps) {
			t.Fatalf("%s: planner made %d steps, %s %d; the cuts differ", w.Name, len(planner.steps), rule.Name(), len(fixed.steps))
		}
	}
}
