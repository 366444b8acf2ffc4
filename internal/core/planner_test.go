package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/grover"
	"repro/internal/obs"
	"repro/internal/qft"
	"repro/internal/supremacy"
)

// scriptedStrategy replays a recorded sequence of flush cuts: it fires
// exactly when the combined count reaches the next recorded cut. Used
// by the differential test to re-run the planner's decisions through a
// strategy that consults nothing — same cuts, same multiplications.
type scriptedStrategy struct {
	cuts []int
	i    int
}

func (s *scriptedStrategy) Name() string { return "scripted" }

func (s *scriptedStrategy) ShouldApply(combined int, _, _ func() int) bool {
	if s.i < len(s.cuts) && combined >= s.cuts[s.i] {
		s.i++
		return true
	}
	return false
}

// bandCircuits holds one circuit per locality band, each long enough
// that its band's rule flushes more than once.
func bandCircuits() map[string]*circuit.Circuit {
	return map[string]*circuit.Circuit{
		"k-operations(k=4)": qft.Circuit(8, true),
		"max-size(s=128)":   grover.Circuit(10, 3, 0),
		"op>2*state":        supremacy.Circuit(3, 3, 12, 4),
	}
}

// TestPlannerDifferential proves the planner changes only *when* the
// accumulated matrix is applied, never *what* is computed: replaying
// its recorded flush cuts through a strategy that looks at nothing
// must reach a pointer-identical state DD on a shared engine, and a
// byte-identical serialisation on a fresh one. It runs one circuit per
// locality band.
func TestPlannerDifferential(t *testing.T) {
	for want, c := range bandCircuits() {
		if _, rule := (Planner{}).rule(c); rule != want {
			t.Fatalf("%s: planner picks %s, want %s", c.Name, rule, want)
		}
		eng := dd.New()
		res, err := Run(c, Options{Strategy: Planner{}, Engine: eng, RecordTrace: true})
		if err != nil {
			t.Fatalf("%s: planner run: %v", c.Name, err)
		}
		var cuts []int
		for _, tp := range res.Trace {
			cuts = append(cuts, tp.Combined)
		}
		if len(cuts) < 3 {
			t.Fatalf("%s: planner made %d steps; its rule must flush more than once", c.Name, len(cuts))
		}

		// Same engine: the unique tables must intern the replayed state
		// onto the very same node.
		ref, err := Run(c, Options{Strategy: &scriptedStrategy{cuts: cuts}, Engine: eng, RecordTrace: true})
		if err != nil {
			t.Fatalf("%s: scripted run: %v", c.Name, err)
		}
		if res.State != ref.State {
			t.Fatalf("%s: planner state not pointer-identical to scripted replay", c.Name)
		}
		if res.MatVecSteps != ref.MatVecSteps || res.MatMatSteps != ref.MatMatSteps {
			t.Fatalf("%s: multiplication counts diverge: planner %d/%d, scripted %d/%d",
				c.Name, res.MatVecSteps, res.MatMatSteps, ref.MatVecSteps, ref.MatMatSteps)
		}

		// Fresh engine: serialised bytes must agree too.
		fresh, err := Run(c, Options{Strategy: &scriptedStrategy{cuts: cuts}, Engine: dd.New()})
		if err != nil {
			t.Fatalf("%s: fresh scripted run: %v", c.Name, err)
		}
		var a, b bytes.Buffer
		if err := dd.WriteV(&a, res.State); err != nil {
			t.Fatal(err)
		}
		if err := dd.WriteV(&b, fresh.State); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: planner state serialisation differs from scripted replay", c.Name)
		}
	}
}

// TestPlannerDeterministic: identical planner runs on fresh engines
// make identical cuts — the planner reads no clock. Grover-16 is big
// enough that a wall-time-driven planner made a different number of
// steps on nearly every run.
func TestPlannerDeterministic(t *testing.T) {
	c := grover.Circuit(16, 0x5a5a, 0)
	var first *Result
	for i := 0; i < 5; i++ {
		res, err := Run(c, Options{Strategy: Planner{}, Engine: dd.New(), RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.MatVecSteps != first.MatVecSteps || res.MatMatSteps != first.MatMatSteps {
			t.Fatalf("run %d: %d mat-vec / %d mat-mat steps, run 0: %d / %d",
				i, res.MatVecSteps, res.MatMatSteps, first.MatVecSteps, first.MatMatSteps)
		}
		if len(res.Trace) != len(first.Trace) {
			t.Fatalf("run %d: %d trace points, run 0: %d", i, len(res.Trace), len(first.Trace))
		}
		for j := range res.Trace {
			if res.Trace[j] != first.Trace[j] {
				t.Fatalf("run %d step %d: %+v, run 0: %+v", i, j, res.Trace[j], first.Trace[j])
			}
		}
	}
}

// TestPlannerMatchesDense anchors planner correctness to the dense
// reference simulator across random circuits, including under blocks.
func TestPlannerMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		n := 2 + rng.Intn(4)
		c := randomCircuit(rng, n, 40, trial%2 == 0)
		for _, useBlocks := range []bool{false, true} {
			res, err := Run(c, Options{Strategy: Planner{}, UseBlocks: useBlocks})
			if err != nil {
				t.Fatalf("trial %d blocks=%v: %v", trial, useBlocks, err)
			}
			if f := fidelityWithDense(t, res, c); f < 1-1e-9 {
				t.Fatalf("trial %d blocks=%v: fidelity %v", trial, useBlocks, f)
			}
		}
	}
}

// TestPlannerEventsAndMetrics: a planner run emits exactly one
// KindPlanner event, naming its band's rule, and counts one decision in
// dd_planner_decisions_total; a resumed run reports the same rule.
func TestPlannerEventsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	for want, c := range bandCircuits() {
		for _, start := range []int{0, len(c.Gates) / 2} {
			ring := obs.NewRing(4096)
			opt := Options{Strategy: Planner{}, EventSink: ring, Metrics: reg}
			if start > 0 {
				// Resume from the sequential state at gate start.
				prefix := &circuit.Circuit{NQubits: c.NQubits, Gates: c.Gates[:start]}
				pre, err := Run(prefix, Options{})
				if err != nil {
					t.Fatal(err)
				}
				opt.Engine, opt.InitialState, opt.StartGate = pre.Engine, &pre.State, start
			}
			if _, err := Run(c, opt); err != nil {
				t.Fatal(err)
			}
			var rules []string
			for _, e := range ring.Events() {
				if e.Kind == obs.KindPlanner {
					rules = append(rules, e.Decision)
					if e.Gate != start {
						t.Fatalf("%s from %d: planner event at gate %d", c.Name, start, e.Gate)
					}
				}
			}
			if len(rules) != 1 || rules[0] != want {
				t.Fatalf("%s from %d: planner events %q, want one naming %s", c.Name, start, rules, want)
			}
		}
	}
	runs := uint64(2 * len(bandCircuits()))
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "dd_planner_decisions_total":
			if uint64(m.Value) != runs {
				t.Fatalf("dd_planner_decisions_total = %v, want %d (one per run)", m.Value, runs)
			}
			return
		}
	}
	t.Fatal("dd_planner_decisions_total not registered")
}

// TestPlannerSharedOptionsNoRace: one Options value reused across
// concurrent runs is safe and every run makes the same cuts. (Run
// under -race in CI's batch-race job.)
func TestPlannerSharedOptionsNoRace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(rng, 5, 60, false)
	opt := Options{Strategy: Planner{}}
	steps := make(chan [2]int, 4)
	for i := 0; i < 4; i++ {
		go func() {
			o := opt
			o.Engine = dd.New()
			res, err := Run(c, o)
			if err != nil {
				t.Error(err)
				steps <- [2]int{-1, -1}
				return
			}
			steps <- [2]int{res.MatVecSteps, res.MatMatSteps}
		}()
	}
	first := <-steps
	for i := 1; i < 4; i++ {
		if got := <-steps; got != first {
			t.Fatalf("concurrent runs disagree: %v vs %v mat-vec/mat-mat steps", got, first)
		}
	}
}

// TestPlannerNameRoundTrip: "planner" parses back to the planner, and
// so do the knob-carrying names older checkpoints recorded.
func TestPlannerNameRoundTrip(t *testing.T) {
	for _, name := range []string{"planner", "planner(w=1024,r=1,g=2)", "planner(w=8,r=0.5,g=4)"} {
		st, err := StrategyFromName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := st.(Planner); !ok || st.Name() != "planner" {
			t.Fatalf("%s: parsed to %T %q", name, st, st.Name())
		}
	}
}

// plannerFlush keeps BenchmarkPlannerDecision's calls from being
// optimised away.
var plannerFlush bool

// BenchmarkPlannerDecision guards the planner's own flush test: it
// runs on every absorbed gate of a low-locality run, so it must stay
// allocation-free (enforced by the CI alloc-regression step).
func BenchmarkPlannerDecision(b *testing.B) {
	var p Strategy = Planner{}
	opSize := func() int { return 12 }
	stateSize := func() int { return 40 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plannerFlush = p.ShouldApply(1+i%8, opSize, stateSize)
	}
}
