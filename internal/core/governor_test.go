// Tests for the memory-pressure governor: knob validation, the staged
// degradation ladder with every rung forced deterministically via
// chaos pressure injection, the exactness guarantees of the exact
// rungs, the fidelity bound of the approximation rung against a dense
// oracle, and the soft-budget rescue of a run that hard-aborts on the
// budget cliff. Lives in the external test package so it can drive the
// real workload generators.
package core_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/grover"
	"repro/internal/qft"
)

// TestGovernorConfigErrors pins the typed validation of the governor
// knobs: every violation is a *core.ConfigError naming the offending
// option, returned before the simulation starts.
func TestGovernorConfigErrors(t *testing.T) {
	c := qft.Circuit(6, true)
	cases := []struct {
		name   string
		opt    core.Options
		option string
	}{
		{"unknown mode", core.Options{Degrade: "gently"}, "Degrade"},
		{"negative soft budget", core.Options{SoftBudget: -1}, "SoftBudget"},
		{"soft above hard", core.Options{SoftBudget: 100, MaxNodes: 50}, "SoftBudget"},
		{"mode without budget", core.Options{Degrade: "ladder"}, "Degrade"},
		{"approx nodes in ladder mode", core.Options{
			SoftBudget: 1000, Degrade: "ladder", ApproxNodes: 64,
		}, "ApproxNodes"},
		{"approx nodes without governor", core.Options{ApproxNodes: 64}, "ApproxNodes"},
		{"approx floor below qubit count", core.Options{
			SoftBudget: 1000, Degrade: "approx", ApproxNodes: 3,
		}, "ApproxNodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := core.Run(c, tc.opt)
			var ce *core.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *core.ConfigError", err)
			}
			if ce.Option != tc.option {
				t.Fatalf("ConfigError.Option = %q, want %q (%v)", ce.Option, tc.option, err)
			}
		})
	}
}

// TestGovernorValidConfigs: configurations that must be accepted, with
// the documented defaulting (SoftBudget implies ladder; Degrade
// without SoftBudget governs against MaxNodes), all completing exactly
// when the budget is never under pressure.
func TestGovernorValidConfigs(t *testing.T) {
	c := qft.Circuit(6, true)
	for _, opt := range []core.Options{
		{SoftBudget: 1 << 20},                    // implies ladder
		{Degrade: "ladder", MaxNodes: 1 << 20},   // governs against MaxNodes
		{Degrade: "approx", SoftBudget: 1 << 20}, // ApproxNodes defaulted
		{Degrade: "off", MaxNodes: 1 << 20},      // explicit off
		{SoftBudget: 1 << 20, Degrade: "approx", ApproxNodes: 64},
	} {
		res, err := core.Run(c, opt)
		if err != nil {
			t.Fatalf("opt %+v: %v", opt, err)
		}
		if len(res.Degradations) != 0 {
			t.Fatalf("untroubled run journaled %d degradations", len(res.Degradations))
		}
		if res.FidelityBound != 1 {
			t.Fatalf("untroubled run reports fidelity bound %v", res.FidelityBound)
		}
	}
}

// maxRung returns the highest ladder rung in a degradation journal and
// the set of rungs touched.
func maxRung(ds []core.Degradation) (int, map[int]bool) {
	rungs := make(map[int]bool)
	top := 0
	for _, d := range ds {
		rungs[d.Rung] = true
		if d.Rung > top {
			top = d.Rung
		}
	}
	return top, rungs
}

// randAmps returns a normalised random amplitude vector on n qubits —
// a state whose DD is maximally large, so the approximation rung has
// something to cut at the very first governor look.
func randAmps(rng *rand.Rand, n int) []complex128 {
	amps := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	s := complex(1/math.Sqrt(norm), 0)
	for i := range amps {
		amps[i] *= s
	}
	return amps
}

// prefix returns the first n gates of c as a standalone circuit (for
// dense references of parked partial states).
func prefix(c *circuit.Circuit, n int) *circuit.Circuit {
	return &circuit.Circuit{Name: c.Name, NQubits: c.NQubits, Gates: c.Gates[:n]}
}

// TestGovernorRungForcing walks the ladder deterministically: chaos
// pressure injection floors the reported level at a fixed band, so a
// single governor look reaches exactly the rungs that band unlocks.
func TestGovernorRungForcing(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	c := grover.Circuit(8, 0x2d, 0)
	ref, err := core.Run(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refAmps := ref.State.ToVector()

	t.Run("low reaches rung 1 only and stays pointer-exact", func(t *testing.T) {
		eng := dd.New()
		if !eng.InjectPressure(dd.PressureLow) {
			t.Fatal("chaos injection refused under DD_CHAOS=1")
		}
		res, err := core.Run(c, core.Options{Engine: eng, SoftBudget: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		top, _ := maxRung(res.Degradations)
		if len(res.Degradations) == 0 || top != 1 {
			t.Fatalf("injected low: %d degradations, top rung %d (want >0 entries, top 1)",
				len(res.Degradations), top)
		}
		amps := res.State.ToVector()
		for i := range amps {
			if amps[i] != refAmps[i] {
				t.Fatalf("rung 1 changed amplitude %d: %v != %v", i, amps[i], refAmps[i])
			}
		}
		if res.FidelityBound != 1 {
			t.Fatalf("exact rungs report fidelity bound %v", res.FidelityBound)
		}
	})

	t.Run("high walks through the exact rungs and completes", func(t *testing.T) {
		eng := dd.New()
		eng.InjectPressure(dd.PressureHigh)
		res, err := core.Run(c, core.Options{Engine: eng, SoftBudget: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		top, rungs := maxRung(res.Degradations)
		if !rungs[2] || top > 3 {
			t.Fatalf("injected high: rungs %v (want rung 2 present, nothing above 3)", rungs)
		}
		if res.FidelityBound != 1 {
			t.Fatalf("exact rungs report fidelity bound %v", res.FidelityBound)
		}
		// Rung 3 sifts, so exactness is up to weight canonicalisation —
		// the same contract as Options.Reorder "sifting".
		amps := dd.VectorInOrder(res.State, res.Order)
		if f := fidelity(amps, refAmps); f < 1-siftFidelityTol {
			t.Fatalf("fidelity %.12f after exact-only ladder", f)
		}
		if err := res.Engine.AuditV(res.State); err != nil {
			t.Fatalf("canonicity audit after governor sift: %v", err)
		}
	})

	t.Run("critical under ladder parks with rung 5", func(t *testing.T) {
		eng := dd.New()
		eng.InjectPressure(dd.PressureCritical)
		var ck *core.Checkpoint
		res, err := core.Run(c, core.Options{
			Engine:       eng,
			SoftBudget:   1 << 20,
			OnCheckpoint: func(c *core.Checkpoint) error { ck = c; return nil },
		})
		var re *core.RunError
		if !errors.As(err, &re) || re.Kind != core.FailurePressure {
			t.Fatalf("err = %v, want FailurePressure", err)
		}
		if !errors.Is(err, core.ErrPressure) {
			t.Fatalf("err %v does not wrap ErrPressure", err)
		}
		if !core.Retryable(err) {
			t.Fatal("a pressure park must be retryable")
		}
		if ck == nil {
			t.Fatal("no park checkpoint written")
		}
		top, rungs := maxRung(res.Degradations)
		if top != 5 || !rungs[2] {
			t.Fatalf("rungs %v (want the ladder walked through rung 5)", rungs)
		}
	})

	t.Run("critical under approx reaches rung 4", func(t *testing.T) {
		eng := dd.New()
		eng.InjectPressure(dd.PressureCritical)
		// A random dense state keeps the state DD large, so rung 4 has
		// something to cut at the very first boundary.
		rng := rand.New(rand.NewSource(11))
		init := eng.FromVector(randAmps(rng, 8))
		qc := qft.Circuit(8, false)
		res, err := core.Run(qc, core.Options{
			Engine:       eng,
			InitialState: &init,
			SoftBudget:   1 << 20,
			Degrade:      "approx",
			ApproxNodes:  32,
		})
		// The injected level never subsides, so after the cut the run
		// still parks — but the journal must show rung 4 fired and the
		// fidelity bound must have been recorded.
		var re *core.RunError
		if !errors.As(err, &re) || re.Kind != core.FailurePressure {
			t.Fatalf("err = %v, want FailurePressure", err)
		}
		_, rungs := maxRung(res.Degradations)
		if !rungs[4] {
			t.Fatalf("rungs %v (want the approximation rung)", rungs)
		}
		if res.FidelityBound <= 0 || res.FidelityBound >= 1 {
			t.Fatalf("fidelity bound %v after a cut, want within (0,1)", res.FidelityBound)
		}
		for _, d := range res.Degradations {
			if d.Rung == 4 && (d.Fidelity <= 0 || d.Fidelity > 1) {
				t.Fatalf("rung 4 entry carries fidelity %v", d.Fidelity)
			}
		}
	})
}

// TestGovernorApproxFidelityOracle confirms the contract of the
// reported bound: the actual fidelity of the governed (approximated)
// state against a dense reference of the same applied prefix is at
// least Result.FidelityBound.
func TestGovernorApproxFidelityOracle(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	rng := rand.New(rand.NewSource(7))
	amps := randAmps(rng, 8)

	eng := dd.New()
	eng.InjectPressure(dd.PressureCritical)
	init := eng.FromVector(amps)
	c := qft.Circuit(8, false)
	res, err := core.Run(c, core.Options{
		Engine:       eng,
		InitialState: &init,
		SoftBudget:   1 << 20,
		Degrade:      "approx",
		ApproxNodes:  32,
	})
	// Under permanent injected pressure the run parks right after the
	// cut; the partial state and its bound are the contract under test.
	var re *core.RunError
	if !errors.As(err, &re) || re.Kind != core.FailurePressure {
		t.Fatalf("err = %v, want FailurePressure", err)
	}
	if res.FidelityBound <= 0 || res.FidelityBound >= 1 {
		t.Fatalf("fidelity bound %v, want a genuine cut within (0,1)", res.FidelityBound)
	}

	exact := dense.FromVector(append([]complex128(nil), amps...))
	exact.Run(prefix(c, res.GatesApplied))
	got := dd.VectorInOrder(res.State, res.Order)
	if f := fidelity(got, exact.Amps); f < res.FidelityBound-1e-9 {
		t.Fatalf("actual fidelity %.12f below the reported bound %.12f", f, res.FidelityBound)
	}
}

// TestGovernorSoftBudgetRescue is the acceptance scenario: a strategy
// that blows a node budget which hard-aborts on the budget cliff
// completes under the same budget once the governor is armed, because
// rung 2 flushes the accumulated matrix early and pins the strategy to
// sequential. The soft rungs must do the rescue on their own: the
// journal holds no budget-abort replay. The rescue uses only the
// pointer-exact rungs (1-2), so the amplitudes are byte-identical to
// the unconstrained run's (if the sift rung ever joined in, agreement
// would be up to weight canonicalisation instead).
func TestGovernorSoftBudgetRescue(t *testing.T) {
	c := grover.Circuit(10, 0x2d5, 0)
	// The budget and watermarks are pinned empirically: 150 live nodes
	// hard-abort combine-all on this circuit but comfortably fit the
	// sequential replay, and the early watermarks make the governor pin
	// sequential before the accumulated matrix can blow the budget
	// between two boundary looks.
	const budget = 150
	marks := dd.Watermarks{Low: 0.2, High: 0.35, Critical: 0.9}

	// Unconstrained reference.
	ref, err := core.Run(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refAmps := ref.State.ToVector()

	// Baseline: the budget with the ladder off is a cliff.
	st, err := core.NewStrategy("combine-all", core.StrategyKnobs{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Run(c, core.Options{Strategy: st, MaxNodes: budget, Degrade: "off"})
	var re *core.RunError
	if !errors.As(err, &re) || re.Kind != core.FailureBudget {
		t.Fatalf("baseline should hard-abort on the budget cliff %d, got %v", budget, err)
	}

	// Same budget, governor armed: the run must complete.
	core.SetPressureWatermarks(t, marks)
	st2, _ := core.NewStrategy("combine-all", core.StrategyKnobs{})
	res, err := core.Run(c, core.Options{
		Strategy:   st2,
		MaxNodes:   budget,
		SoftBudget: budget,
	})
	if err != nil {
		t.Fatalf("governed run under the cliff budget %d: %v", budget, err)
	}
	top, rungs := maxRung(res.Degradations)
	if !rungs[2] {
		t.Fatalf("rungs %v (want the flush-and-pin rung)", rungs)
	}
	if n := res.Replays(); n != 0 {
		t.Fatalf("%d budget-abort replays: the soft rungs must rescue the run on their own", n)
	}
	if res.FidelityBound != 1 {
		t.Fatalf("exact ladder reports fidelity bound %v", res.FidelityBound)
	}
	amps := dd.VectorInOrder(res.State, res.Order)
	if top <= 2 {
		for i := range amps {
			if amps[i] != refAmps[i] {
				t.Fatalf("exact rescue changed amplitude %d: %v != %v", i, amps[i], refAmps[i])
			}
		}
	} else if f := fidelity(amps, refAmps); f < 1-siftFidelityTol {
		t.Fatalf("fidelity %.12f after exact ladder (rungs %v)", f, rungs)
	}
	if err := res.Engine.AuditV(res.State); err != nil {
		t.Fatalf("canonicity audit: %v", err)
	}
}

// TestGovernorParkCheckpointFailure: when the park checkpoint cannot be
// written, the returned error reports both the pressure park and the
// checkpoint failure, and stops being retryable — a scheduler must not
// re-admit a job whose resume point was lost.
func TestGovernorParkCheckpointFailure(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	eng := dd.New()
	eng.InjectPressure(dd.PressureCritical)
	werr := errors.New("disk full")
	_, err := core.Run(grover.Circuit(8, 0x2d, 0), core.Options{
		Engine:       eng,
		SoftBudget:   1 << 20,
		OnCheckpoint: func(*core.Checkpoint) error { return werr },
	})
	if !errors.Is(err, core.ErrPressure) {
		t.Fatalf("err %v does not wrap ErrPressure", err)
	}
	if !errors.Is(err, core.ErrCheckpointWrite) {
		t.Fatalf("err %v does not wrap ErrCheckpointWrite", err)
	}
	if !errors.Is(err, werr) {
		t.Fatalf("err %v lost the underlying write error", err)
	}
	if core.Retryable(err) {
		t.Fatal("a park without a checkpoint must not be retryable")
	}
}

// TestGovernCrossKnobs runs the knobs that touch the degradation
// ladder together on one DD-repeating Grover circuit: a node budget
// that trips the combined block (a replay), the ladder governing
// against it (a rung-1 collection before the block), k-operations
// flushes and sifting forced at every flush. The journal must be
// ordered by gate, the engine must audit clean, and the amplitudes
// must match the dense oracle up to sifting's re-canonicalisation.
func TestGovernCrossKnobs(t *testing.T) {
	core.ForceSifting(t)
	c := grover.Circuit(9, 5, 0)
	res, err := core.Run(c, core.Options{
		UseBlocks: true,
		Strategy:  core.KOperations{K: 4},
		MaxNodes:  120,
		Degrade:   "ladder",
		Reorder:   "sifting",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays() == 0 || res.Replays() == len(res.Degradations) {
		t.Fatalf("journal %+v: want at least one replay and one soft rung", res.Degradations)
	}
	if res.Stats.SiftPasses == 0 {
		t.Fatal("forced sifting never ran")
	}
	for i := 1; i < len(res.Degradations); i++ {
		if res.Degradations[i].GateIndex < res.Degradations[i-1].GateIndex {
			t.Fatalf("journal out of gate order: %+v", res.Degradations)
		}
	}
	if err := res.Engine.Audit(); err != nil {
		t.Fatalf("engine audit: %v", err)
	}
	if err := res.Engine.AuditV(res.State); err != nil {
		t.Fatalf("state audit: %v", err)
	}
	got := dd.VectorInOrder(res.State, res.Order)
	if f := fidelity(got, dense.Simulate(c).Amps); f < 1-siftFidelityTol {
		t.Fatalf("fidelity %.12f against the dense oracle", f)
	}
}
