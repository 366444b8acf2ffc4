package core

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/grover"
	"repro/internal/obs"
	"repro/internal/verify"
)

// verifyStrategies is the matrix the verification tests sweep: both
// multiplication regimes plus the hybrids, so the verifier sees states
// with and without an accumulated operation matrix in flight.
var verifyStrategies = []Strategy{
	Sequential{},
	KOperations{K: 4},
	MaxSize{SMax: 64},
	Planner{},
	CombineAll{},
}

// TestVerifiedRunMatchesDense runs random circuits under VerifyEvery=1
// with and without Paranoid and checks the result still matches a dense
// simulation — verification must never perturb the state.
func TestVerifiedRunMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(3)
		c := verify.RandomCircuit(rng, n, 20+rng.Intn(20))
		oracle := dense.Simulate(c)
		for _, st := range verifyStrategies {
			for _, paranoid := range []bool{false, true} {
				res, err := Run(c, Options{Strategy: st, VerifyEvery: 1, Paranoid: paranoid})
				if err != nil {
					t.Fatalf("trial %d %s paranoid=%v: %v", trial, st.Name(), paranoid, err)
				}
				if f := verify.Fidelity(res.State.ToVector(), oracle); f < 1-verify.FidelityTol {
					t.Fatalf("trial %d %s paranoid=%v: fidelity %v", trial, st.Name(), paranoid, f)
				}
				if res.Repairs != 0 {
					t.Fatalf("trial %d %s: %d repairs on a healthy run", trial, st.Name(), res.Repairs)
				}
				if res.NormDrift < 0 || res.NormDrift > dd.DefaultNormTol {
					t.Fatalf("trial %d %s: norm drift %g", trial, st.Name(), res.NormDrift)
				}
			}
		}
	}
}

// TestVerifyCadence checks that VerifyEvery > 1 still verifies at the
// end of the run, and that a disabled verifier reports no drift.
func TestVerifyCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := verify.RandomCircuit(rng, 4, 30)
	ring := obs.NewRing(512)
	if _, err := Run(c, Options{VerifyEvery: 10, EventSink: ring}); err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	for _, e := range ring.Events() {
		if e.Kind == obs.KindVerify {
			events = append(events, e)
		}
	}
	if len(events) < 3 {
		t.Fatalf("VerifyEvery=10 over 30 gates produced %d verify events, want >= 3", len(events))
	}
	for _, e := range events {
		if e.Check != "" {
			t.Fatalf("healthy run produced failing verify event: %+v", e)
		}
	}

	res, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NormDrift != 0 || res.Repairs != 0 {
		t.Fatalf("unverified run reports drift %g repairs %d", res.NormDrift, res.Repairs)
	}
}

// TestParanoidQubitCap: Paranoid beyond the dense oracle's range is a
// configuration error, not a silent downgrade.
func TestParanoidQubitCap(t *testing.T) {
	c := circuit.New(verify.MaxOracleQubits + 1)
	c.H(0)
	if _, err := Run(c, Options{Paranoid: true}); err == nil {
		t.Fatal("Paranoid accepted a circuit beyond the oracle's qubit range")
	}
	// Plain VerifyEvery has no dense oracle and must still work.
	if _, err := Run(c, Options{VerifyEvery: 1}); err != nil {
		t.Fatalf("VerifyEvery beyond oracle range: %v", err)
	}
}

// TestBitFlipRepair is the chaos sweep at the runtime level: a bit-flip
// fault is armed at varying interning counts and kinds, and every trial
// must end in one of exactly two ways — a FailureCorruption abort, or a
// successful run whose final state matches the dense oracle. A silent
// wrong-amplitude escape fails the test. Requires chaos builds
// (DD_CHAOS=1 or the ddchaos tag).
func TestBitFlipRepair(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	rng := rand.New(rand.NewSource(1213))
	repaired, aborted := 0, 0
	for _, kind := range []dd.FaultKind{dd.FaultWeightFlip, dd.FaultChildFlip} {
		for _, after := range []uint64{1, 5, 17, 43, 101, 211} {
			for _, st := range verifyStrategies {
				c := verify.RandomCircuit(rng, 4, 30)
				oracle := dense.Simulate(c)
				eng := dd.New()
				if !eng.InjectBitFlipAfter(after, kind) {
					t.Skip("fault injection did not arm (chaos disabled)")
				}
				res, err := Run(c, Options{
					Engine:      eng,
					Strategy:    st,
					VerifyEvery: 1,
				})
				if err != nil {
					if !errors.Is(err, ErrCorruption) {
						t.Fatalf("%v after %d under %s: non-corruption failure %v", kind, after, st.Name(), err)
					}
					aborted++
					continue
				}
				if f := verify.Fidelity(res.State.ToVector(), oracle); f < 1-verify.FidelityTol {
					t.Fatalf("%v after %d under %s: SILENT ESCAPE — run succeeded with fidelity %v (repairs %d, faults %d)",
						kind, after, st.Name(), f, res.Repairs, res.Stats.FaultsInjected)
				}
				if res.Repairs > 0 {
					repaired++
					if res.Stats.FaultsInjected == 0 {
						t.Fatalf("%v after %d under %s: repair without a recorded fault", kind, after, st.Name())
					}
				}
			}
		}
	}
	t.Logf("sweep: %d repaired, %d aborted", repaired, aborted)
	if repaired == 0 {
		t.Error("no trial exercised the repair path; widen the sweep")
	}
}

// TestChaosMemoisedGateBitFlipRepair flips a bit in a gate DD that the
// engine's gate memo then hands out again on every later use (a
// rebuild would have re-interned a clean node instead). The verifier
// must catch it and repair onto a fresh engine, whose memo starts
// empty, so the run ends at the clean sequential result.
func TestChaosMemoisedGateBitFlipRepair(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	const n = 6
	c := grover.Circuit(n, 0b101101, 0)
	ref, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []dd.FaultKind{dd.FaultWeightFlip, dd.FaultChildFlip} {
		eng := dd.New()
		if !eng.InjectBitFlipAfter(1, kind) {
			t.Skip("fault injection did not arm (chaos disabled)")
		}
		// The first oracle gate recurs in every Grover iteration.
		g := c.Gates[n]
		flipped := eng.GateDD(g.Matrix, n, g.Target, g.Controls)
		if eng.Stats().FaultsInjected != 1 {
			t.Fatalf("%v: fault did not land in the gate DD", kind)
		}
		iteration := (len(c.Gates) - n) / grover.Iterations(n)
		res, err := Run(c, Options{Engine: eng, Strategy: KOperations{K: 4}, VerifyEvery: 2 * iteration})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Repairs == 0 {
			t.Fatalf("%v: flipped gate went unrepaired", kind)
		}
		// The retired engine still holds the flipped gate in its memo,
		// so every use of the gate before the repair received it.
		if again := eng.GateDD(g.Matrix, n, g.Target, g.Controls); again != flipped {
			t.Fatalf("%v: the memo did not keep the flipped gate", kind)
		}
		got, want := res.State.ToVector(), ref.State.ToVector()
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%v: amplitude %d = %v after repair, sequential reference %v", kind, i, got[i], want[i])
			}
		}
	}
}

// TestRepairEmitsEvents checks the observability contract: a repaired
// run emits verify events with a failing check and a repair event, and
// the metrics counters move.
func TestRepairEmitsEvents(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	rng := rand.New(rand.NewSource(99))
	reg := obs.NewRegistry()
	// Sweep injection points until one lands mid-run and is repaired.
	for after := uint64(3); after < 120; after += 7 {
		c := verify.RandomCircuit(rng, 4, 30)
		eng := dd.New()
		if !eng.InjectBitFlipAfter(after, dd.FaultWeightFlip) {
			t.Skip("fault injection did not arm (chaos disabled)")
		}
		ring := obs.NewRing(2048)
		pre := eng.Stats()
		res, err := Run(c, Options{Engine: eng, VerifyEvery: 1, EventSink: ring, Metrics: reg})
		if err != nil || res.Repairs == 0 {
			continue
		}
		// The run_end totals span both engines, like Result.Stats.
		checkRunEndTotals(t, runEndOf(t, ring.Events()), pre, res.Stats)
		var verifies, fails, repairs int
		for _, e := range ring.Events() {
			switch e.Kind {
			case obs.KindVerify:
				verifies++
				if e.Check != "" {
					fails++
				}
			case obs.KindRepair:
				repairs++
			}
		}
		if verifies == 0 || fails == 0 || repairs == 0 {
			t.Fatalf("repaired run emitted verifies=%d fails=%d repairs=%d", verifies, fails, repairs)
		}
		return
	}
	t.Skip("no injection point produced an in-run repair for this seed sweep")
}

// TestVerifierStatsCarryAcrossRepair checks that a run surviving an
// engine swap still reports sane totals: the counters must cover both
// engines (at least as much work as the gate count implies) and not
// underflow into absurd values.
func TestVerifierStatsCarryAcrossRepair(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	rng := rand.New(rand.NewSource(4242))
	for after := uint64(5); after < 150; after += 11 {
		c := verify.RandomCircuit(rng, 4, 40)
		eng := dd.New()
		if !eng.InjectBitFlipAfter(after, dd.FaultWeightFlip) {
			t.Skip("fault injection did not arm (chaos disabled)")
		}
		res, err := Run(c, Options{Engine: eng, VerifyEvery: 1})
		if err != nil || res.Repairs == 0 {
			continue
		}
		if res.Stats.FaultsInjected != 1 {
			t.Fatalf("faults injected %d, want 1", res.Stats.FaultsInjected)
		}
		if res.Stats.NodesCreated == 0 || res.Stats.NodesCreated > 1<<40 {
			t.Fatalf("implausible NodesCreated %d after engine swap (counter underflow?)", res.Stats.NodesCreated)
		}
		if res.Stats.MatVecMuls == 0 || res.Stats.MatVecMuls > 1<<30 {
			t.Fatalf("implausible MatVecMuls %d after engine swap", res.Stats.MatVecMuls)
		}
		if res.Engine == eng {
			t.Fatal("result still points at the retired engine")
		}
		return
	}
	t.Skip("no injection point produced an in-run repair for this seed sweep")
}

// TestLockstepOracle unit-tests the shared oracle: advance, no-rewind,
// and mismatch classification.
func TestLockstepOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := verify.RandomCircuit(rng, 3, 15)
	ls, err := verify.NewLockstep(c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := dd.New()
	v := eng.ZeroState(3)
	for i, g := range c.Gates {
		v = eng.MulVec(eng.GateDD(g.Matrix, 3, g.Target, g.Controls), v)
		if err := ls.Advance(i + 1); err != nil {
			t.Fatal(err)
		}
		if err := ls.Check(v); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
	}
	if err := ls.Advance(5); err != nil {
		t.Fatalf("rewind-style Advance errored: %v", err)
	}
	if ls.Applied() != len(c.Gates) {
		t.Fatalf("oracle rewound to %d", ls.Applied())
	}
	if err := ls.Advance(len(c.Gates) + 1); err == nil {
		t.Fatal("Advance beyond circuit end accepted")
	}
	// A deliberately wrong state must be classified as ErrMismatch.
	wrong := eng.MulVec(eng.GateDD([2][2]complex128{{0, 1}, {1, 0}}, 3, 0, nil), v)
	if err := ls.Check(wrong); !errors.Is(err, verify.ErrMismatch) {
		t.Fatalf("wrong state: got %v, want ErrMismatch", err)
	}
}
