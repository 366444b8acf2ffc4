package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
)

// TestBudgetLedger exercises the batch-wide budget ledger directly:
// leases draw their share from the pool, a grow grant is capped by both
// the freed pool and the caller's current budget (at most doubling),
// and every release rebalances the pool exactly — the ledger ends where
// it started once all leases are returned.
func TestBudgetLedger(t *testing.T) {
	l := &budgetLedger{free: 1000}
	a := l.take(400)
	b := l.take(400)
	if l.free != 200 {
		t.Fatalf("free = %d after two 400 leases, want 200", l.free)
	}

	// a grows: the pool has 200 left, below a's current budget of 400.
	if nb := a.grow(400); nb != 600 {
		t.Fatalf("grow(400) with 200 free = %d, want 600", nb)
	}
	if a.held() != 600 || l.free != 0 {
		t.Fatalf("after grow: held %d free %d, want 600/0", a.held(), l.free)
	}

	// b grows against an empty pool: no grant, budget unchanged.
	if nb := b.grow(400); nb != 400 {
		t.Fatalf("grow against empty pool = %d, want 400", nb)
	}

	// a finishes; its whole lease (share + grant) returns to the pool.
	l.release(a.held())
	if l.free != 600 {
		t.Fatalf("free = %d after releasing a, want 600", l.free)
	}

	// b grows again: the grant is capped at b's current budget (the
	// at-most-doubling rule), not the whole freed pool.
	if nb := b.grow(400); nb != 800 {
		t.Fatalf("grow(400) with 600 free = %d, want 800", nb)
	}
	if b.held() != 800 || l.free != 200 {
		t.Fatalf("after second grow: held %d free %d, want 800/200", b.held(), l.free)
	}

	l.release(b.held())
	if l.free != 1000 {
		t.Fatalf("ledger unbalanced: free = %d after all releases, want 1000", l.free)
	}
}

// TestRunBatchPressurePark: a batch surfaces a sibling's pressure park
// as a retryable FailurePressure with the partial result's degradation
// journal attached, without disturbing the healthy job. The pressured
// engine is forced via chaos injection, so the outcome is deterministic
// (the injected level never subsides — the governor always parks).
func TestRunBatchPressurePark(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	eng := dd.New()
	if !eng.InjectPressure(dd.PressureCritical) {
		t.Fatal("chaos injection refused under DD_CHAOS=1")
	}

	small := circuit.New(2)
	small.H(0)
	big := circuit.New(4)
	for q := 0; q < 4; q++ {
		big.H(q)
	}

	res, err := RunBatch(context.Background(), []BatchJob{
		{Circuit: small},
		{Circuit: big, Options: Options{Engine: eng, Degrade: "ladder"}},
	}, BatchOptions{Workers: 2, MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("healthy sibling failed: %v", res[0].Err)
	}
	var re *RunError
	if !errors.As(res[1].Err, &re) || re.Kind != FailurePressure {
		t.Fatalf("pressured job: err = %v, want FailurePressure", res[1].Err)
	}
	if !Retryable(res[1].Err) {
		t.Fatal("a batch pressure park must be retryable")
	}
	if res[1].Result == nil || len(res[1].Result.Degradations) == 0 {
		t.Fatal("pressured job lost its degradation journal")
	}
	last := res[1].Result.Degradations[len(res[1].Result.Degradations)-1]
	if last.Rung != 5 || last.Action != "park" {
		t.Fatalf("journal ends with %+v, want the rung-5 park", last)
	}
}

// TestGCThresholdFollowsBudgetGrant: once a GrowBudget grant raises the
// soft budget, routine GC clamps to ¾ of the granted budget, not of the
// one the run started with — the same live budget the pressure bands
// and a repaired engine use. The runner is built by hand so the test
// can read its threshold after the run; injected critical pressure
// makes the first governor look take the grant and then park.
func TestGCThresholdFollowsBudgetGrant(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	eng := dd.New()
	if !eng.InjectPressure(dd.PressureCritical) {
		t.Fatal("chaos injection refused under DD_CHAOS=1")
	}
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	opt := Options{
		Strategy:    Sequential{},
		GCThreshold: defaultGCThreshold,
		MaxNodes:    1000,
		SoftBudget:  1000,
		GrowBudget:  func(cur int) int { return 4 * cur },
	}
	if err := normalizeGovernor(&opt, c.NQubits); err != nil {
		t.Fatal(err)
	}
	r := &runner{eng: eng, c: c, opt: opt, ctx: context.Background(), v: eng.ZeroState(c.NQubits), stateSz: -1}
	r.gov = newGovernor(r)
	eng.SetSoftBudget(opt.SoftBudget, pressureMarks)
	defer eng.SetSoftBudget(0, dd.Watermarks{})
	if th := r.gcThreshold(); th != 750 {
		t.Fatalf("gcThreshold() = %d before the grant, want 750", th)
	}

	var re *RunError
	if err := r.run(); !errors.As(err, &re) || re.Kind != FailurePressure {
		t.Fatalf("err = %v, want the rung-5 park under injected critical pressure", err)
	}
	granted := false
	for _, d := range r.gov.journal {
		granted = granted || d.Action == "grow"
	}
	if !granted {
		t.Fatalf("journal %+v holds no grant", r.gov.journal)
	}
	if th := r.gcThreshold(); th != 3000 {
		t.Fatalf("gcThreshold() = %d after a grant to 4000, want 3000", th)
	}
}
