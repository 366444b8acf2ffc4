package dd_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/supremacy"
)

// TestSequentialRunKeepsFloor checks that a small sequential run, whose
// working set fits the floor, never grows a compute table: add-v and
// mul-mv stay at 2^13 slots and the mat-mat tables are never allocated.
func TestSequentialRunKeepsFloor(t *testing.T) {
	e := dd.New()
	runGates(e, supremacy.Circuit(3, 3, 10, 1))
	m := e.MemStats()
	got := [4]int{m.AddVSlots, m.AddMSlots, m.MulMVSlots, m.MulMMSlots}
	if want := [4]int{1 << 13, 0, 1 << 13, 0}; got != want {
		t.Fatalf("compute tables (add-v, add-m, mul-mv, mul-mm) = %v, want %v", got, want)
	}
}

// TestPlannerGrowsTables runs supremacy 4×4 depth 13 under the planner,
// whose flushes multiply operation DDs wide enough to thrash a 2^13
// table: the run must grow a table past the floor, and its add
// recursions must stay within 1.35× of the same run with every table
// pinned at 2^16 slots, the fixed size the tables had before they grew.
func TestPlannerGrowsTables(t *testing.T) {
	c := supremacy.Circuit(4, 4, 13, 1)
	run := func(t *testing.T) (dd.Stats, dd.MemStats) {
		t.Helper()
		r, err := core.Run(c, core.Options{Strategy: core.Planner{}})
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats, r.Engine.MemStats()
	}
	grown, m := run(t)
	if max(m.AddVSlots, m.AddMSlots, m.MulMVSlots, m.MulMMSlots) <= 1<<13 {
		t.Fatalf("no compute table grew past the floor: %+v", m)
	}
	var pinned dd.Stats
	t.Run("pinned", func(t *testing.T) {
		dd.SetCacheBounds(t, 1<<16, 1<<16)
		pinned, _ = run(t)
	})
	if r := float64(grown.AddRecursions) / float64(pinned.AddRecursions); r > 1.35 {
		t.Fatalf("add recursions %d, %.2f× the %d of tables pinned at 2^16",
			grown.AddRecursions, r, pinned.AddRecursions)
	}
}

// TestNodeIDExhaustionFailsTyped starts an engine a thousand ids short
// of the 32-bit id space. The run must fail as a retryable
// FailurePanic carrying dd.ErrNodeIDsExhausted, and leave no node with
// an id outside the issued range: an id counter that wrapped would
// reissue 0, the terminals' id, and then the ids of live nodes.
func TestNodeIDExhaustionFailsTyped(t *testing.T) {
	e := dd.New()
	e.SetNextID(math.MaxUint32 - 1000)
	_, err := core.Run(supremacy.Circuit(3, 3, 10, 1), core.Options{Engine: e})
	var re *core.RunError
	if !errors.As(err, &re) || re.Kind != core.FailurePanic {
		t.Fatalf("run error %v, want a FailurePanic", err)
	}
	if !errors.Is(err, dd.ErrNodeIDsExhausted) {
		t.Fatalf("run error %v does not carry ErrNodeIDsExhausted", err)
	}
	if !core.Retryable(err) {
		t.Fatalf("run error %v is not retryable", err)
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after exhaustion: %v", err)
	}
}
