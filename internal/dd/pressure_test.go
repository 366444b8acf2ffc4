package dd

import (
	"math/rand"
	"testing"
)

// TestPressureDisarmed: a fresh engine reports no pressure, regardless
// of how many nodes are live.
func TestPressureDisarmed(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	_ = e.FromVector(randState(rng, 10))
	p := e.Pressure()
	if p.Level != PressureNone || p.Live != e.VNodeCount()+e.MNodeCount() {
		t.Fatalf("disarmed engine reports pressure: %+v", p)
	}
}

// TestPressureWatermarkBands drives one live set through the default
// 70/85/95% bands by re-arming the soft budget around it.
func TestPressureWatermarkBands(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(2))
	v := e.FromVector(randState(rng, 10))
	e.GarbageCollect([]VEdge{v}, nil)
	live := e.VNodeCount() + e.MNodeCount()
	if live < 40 {
		t.Fatalf("need a non-trivial live set, got %d nodes", live)
	}
	cases := []struct {
		name   string
		budget int
		want   PressureLevel
	}{
		{"half", live * 2, PressureNone},             // occupancy 0.50
		{"threequarters", live * 4 / 3, PressureLow}, // occupancy 0.75
		{"ninety", live * 10 / 9, PressureHigh},      // occupancy 0.90
		{"full", live, PressureCritical},             // occupancy 1.00
	}
	for _, tc := range cases {
		e.SetSoftBudget(tc.budget, Watermarks{})
		p := e.Pressure()
		if p.Level != tc.want {
			t.Errorf("%s: budget %d live %d: level %v, want %v",
				tc.name, tc.budget, p.Live, p.Level, tc.want)
		}
		if p.Live != live {
			t.Errorf("%s: snapshot live %d, want %d", tc.name, p.Live, live)
		}
	}
	e.SetSoftBudget(0, Watermarks{})
	if p := e.Pressure(); p.Level != PressureNone {
		t.Fatalf("disarm did not clear the signal: %+v", p)
	}
}

// TestSoftBudgetLeavesProbeDisarmed: a soft budget alone never arms
// the kernel probe — a MulVec under it takes no probes — yet Pressure()
// still bands the live set it leaves behind (the bands themselves are
// pinned by TestPressureWatermarkBands).
func TestSoftBudgetLeavesProbeDisarmed(t *testing.T) {
	e := New()
	const n = 10
	rng := rand.New(rand.NewSource(4))
	v := e.FromVector(randState(rng, n))
	e.SetSoftBudget(1, Watermarks{}) // any live node is critical occupancy
	g := e.GateDD(randUnitary(rng), n, 3, nil)
	e.MulVec(g, v)
	if p := e.Probes(); p != 0 {
		t.Fatalf("soft budget alone took %d abort probes, want 0", p)
	}
	if p := e.Pressure(); p.Level != PressureCritical {
		t.Fatalf("live %d under soft budget 1: level %v, want critical", p.Live, p.Level)
	}
}

// TestInjectPressure: the chaos override arms only under DD_CHAOS and
// then floors the reported level, with or without a soft budget.
func TestInjectPressure(t *testing.T) {
	e := New()
	if e.InjectPressure(PressureCritical) {
		t.Skip("built with the ddchaos tag; the no-chaos half does not apply")
	}
	t.Setenv("DD_CHAOS", "1")
	if !e.InjectPressure(PressureHigh) {
		t.Fatal("InjectPressure refused under DD_CHAOS=1")
	}
	if p := e.Pressure(); p.Level != PressureHigh {
		t.Fatalf("injected high, Pressure() = %v", p.Level)
	}
	// A real signal above the injection wins (max, not override).
	rng := rand.New(rand.NewSource(5))
	v := e.FromVector(randState(rng, 10))
	e.GarbageCollect([]VEdge{v}, nil)
	e.SetSoftBudget(e.VNodeCount()+e.MNodeCount(), Watermarks{})
	if p := e.Pressure(); p.Level != PressureCritical {
		t.Fatalf("occupancy 1.0 with injected high should read critical, got %v", p.Level)
	}
	e.SetSoftBudget(0, Watermarks{})
	e.InjectPressure(PressureNone)
	if p := e.Pressure(); p.Level != PressureNone {
		t.Fatalf("cleared injection still reports %v", p.Level)
	}
}
