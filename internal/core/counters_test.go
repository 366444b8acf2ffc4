package core

import (
	"testing"

	"repro/internal/dd"
	"repro/internal/grover"
	"repro/internal/obs"
)

// checkRunEndTotals requires every engine counter run_end carries to
// equal the run's delta, post (Result.Stats) minus pre (the engine's
// snapshot before the run).
func checkRunEndTotals(t *testing.T, ev obs.Event, pre, post dd.Stats) {
	t.Helper()
	d := post.Sub(pre)
	for i, c := range dd.StepCounters {
		if got, want := *ev.Step(i), c.Value(&d); got != want {
			t.Errorf("run_end %s = %d, Result.Stats delta %d", c.Name, got, want)
		}
	}
	for _, f := range []struct {
		name      string
		got, want int64
	}{
		{"gcs", int64(ev.GCs), int64(d.GCs)},
		{"gc_pause_ns", ev.GCPauseNS, d.GCPause.Nanoseconds()},
		{"swaps", int64(ev.Swaps), int64(d.ReorderSwaps)},
		{"sift_passes", int64(ev.SiftPasses), int64(d.SiftPasses)},
		{"peak_nodes", int64(ev.PeakNodes), int64(d.PeakVNodes + d.PeakMNodes)},
	} {
		if f.got != f.want {
			t.Errorf("run_end %s = %d, Result.Stats delta %d", f.name, f.got, f.want)
		}
	}
}

func runEndOf(t *testing.T, evs []obs.Event) obs.Event {
	t.Helper()
	ends := eventsOfKind(evs, obs.KindRunEnd)
	if len(ends) != 1 {
		t.Fatalf("%d run_end events, want 1", len(ends))
	}
	return ends[0]
}

// TestRunEndTotalsMatchResult: run_end reports the same run delta as
// Result.Stats, zero-state construction included, on a fresh and on a
// pre-used engine.
func TestRunEndTotalsMatchResult(t *testing.T) {
	for _, st := range []Strategy{Sequential{}, KOperations{K: 4}} {
		eng := dd.New()
		for round := 0; round < 2; round++ {
			ring := obs.NewRing(1 << 12)
			pre := eng.Stats()
			res, err := Run(grover.Circuit(8, 5, 0), Options{Strategy: st, Engine: eng, EventSink: ring})
			if err != nil {
				t.Fatal(err)
			}
			checkRunEndTotals(t, runEndOf(t, ring.Events()), pre, res.Stats)
		}
	}
}

// TestResultStatsIsEngineStats: a run never leaves its engine, so
// Result.Stats is exactly the engine's own snapshot — every counter,
// the pressure probes of a governed run and the nodes its verification
// passes build included.
func TestResultStatsIsEngineStats(t *testing.T) {
	eng := dd.New()
	for round, name := range []string{"fresh", "pre-used"} {
		res, err := Run(grover.Circuit(10, 5, 0), Options{Engine: eng, SoftBudget: 200, Degrade: "ladder", VerifyEvery: 16})
		if err != nil {
			t.Fatalf("%s engine: %v", name, err)
		}
		if got := eng.Stats(); res.Stats != got {
			t.Errorf("%s engine: Result.Stats\n%+v\nengine\n%+v", name, res.Stats, got)
		}
		if round == 0 && res.Stats.PressureProbesLow == 0 {
			t.Errorf("governed run took no low-band pressure probes")
		}
	}
}
