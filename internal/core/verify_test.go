package core

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
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
	if res.NormDrift != 0 {
		t.Fatalf("unverified run reports drift %g", res.NormDrift)
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

// corruptState damages the root node of a live state in place, the way
// a fault in the engine's memory would: a mid-mantissa bit flip in its
// first non-zero weight, or a swap of its two successor edges (a
// redirect of the 0-child to the terminal when both are equal). The
// node keeps its unique-table slot and the key hash stored there; that
// staleness is the damage.
func corruptState(v dd.VEdge, swap bool) {
	n := v.N
	if swap {
		if n.E[0] != n.E[1] {
			n.E[0], n.E[1] = n.E[1], n.E[0]
			return
		}
		if n.V > 0 {
			n.E[0].N = dd.VOne().N
			return
		}
	}
	for i, e := range n.E {
		if e.W != 0 {
			n.E[i].W = flipWeight(e.W)
			return
		}
	}
}

// flipWeight flips mantissa bit 30 of w's real part, or of its
// imaginary part when the real part is zero: far beyond cnum's
// tolerance, yet still a plausible amplitude.
func flipWeight(w complex128) complex128 {
	flip := func(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1<<30) }
	if real(w) != 0 {
		return complex(flip(real(w)), imag(w))
	}
	return complex(real(w), flip(imag(w)))
}

// corruptionSweep runs every verification strategy over random 4-qubit
// circuits with VerifyEvery and CheckpointEvery at 1, and corrupts the
// live state handed to OnCheckpoint — a mid-run fault with no program
// hook — at the first checkpoint at or after each of a set of gates,
// and (persistent) at every checkpoint after it too. inspect sees each
// checkpoint before the test damages it; done sees each run's outcome
// and whether a fault landed.
func corruptionSweep(t *testing.T, persistent bool,
	inspect func(c *circuit.Circuit, ck *Checkpoint),
	done func(c *circuit.Circuit, st Strategy, res *Result, err error, landed bool)) {
	t.Helper()
	rng := rand.New(rand.NewSource(1213))
	for _, swap := range []bool{false, true} {
		for _, at := range []int{1, 5, 11, 17, 23, 29} {
			for _, st := range verifyStrategies {
				c := verify.RandomCircuit(rng, 4, 30)
				landed := false
				res, err := Run(c, Options{
					Strategy:        st,
					VerifyEvery:     1,
					CheckpointEvery: 1,
					OnCheckpoint: func(ck *Checkpoint) error {
						if inspect != nil {
							inspect(c, ck)
						}
						if ck.NextGate >= at && (persistent || !landed) {
							corruptState(ck.State, swap)
							landed = true
						}
						return nil
					},
				})
				done(c, st, res, err, landed)
			}
		}
	}
}

// TestCorruptionFailsTyped: a run whose state is corrupted mid-run must
// end with the typed corruption failure (or a recovered kernel panic on
// the damaged structure); a run the fault never reached must succeed.
// No run may succeed with wrong amplitudes.
func TestCorruptionFailsTyped(t *testing.T) {
	landedRuns := 0
	corruptionSweep(t, false, nil, func(c *circuit.Circuit, st Strategy, res *Result, err error, landed bool) {
		if err == nil {
			if landed {
				t.Fatalf("%s: corrupted run succeeded", st.Name())
			}
			if f := verify.Fidelity(res.State.ToVector(), dense.Simulate(c)); f < 1-verify.FidelityTol {
				t.Fatalf("%s: SILENT ESCAPE — run succeeded with fidelity %v", st.Name(), f)
			}
			return
		}
		landedRuns++
		var re *RunError
		if !errors.Is(err, ErrCorruption) && !(errors.As(err, &re) && re.Kind == FailurePanic) {
			t.Fatalf("%s: corruption ended the run with %v", st.Name(), err)
		}
	})
	t.Logf("%d corrupted runs failed typed", landedRuns)
	if landedRuns == 0 {
		t.Fatal("no fault landed; widen the sweep")
	}
}

// TestVerifiedCheckpointsAreClean: under a verifier every checkpoint,
// the abort checkpoint included, holds the dense simulation of its gate
// prefix — even while a fault keeps corrupting the state. The last
// checkpoint is then a known-good resume point.
func TestVerifiedCheckpointsAreClean(t *testing.T) {
	checked := 0
	corruptionSweep(t, true, func(c *circuit.Circuit, ck *Checkpoint) {
		prefix := &circuit.Circuit{NQubits: c.NQubits, Gates: c.Gates[:ck.NextGate]}
		amps := dd.VectorInOrder(ck.State, ck.Order)
		if f := verify.Fidelity(amps, dense.Simulate(prefix)); f < 1-verify.FidelityTol {
			t.Errorf("checkpoint at gate %d: fidelity %v against its dense prefix", ck.NextGate, f)
		}
		checked++
	}, func(*circuit.Circuit, Strategy, *Result, error, bool) {})
	if checked == 0 {
		t.Fatal("no checkpoint was written")
	}
}

// TestChaosMemoisedGateCorruptionResumes corrupts a Grover oracle gate
// DD in the engine's gate memo, which hands the damaged edge out again
// on every later use. Corrupted before the run, the gate fails the
// first verification pass: the run ends typed and writes no checkpoint.
// Corrupted once the first checkpoint is on disk, it fails the run at
// the next pass, and resuming from the last checkpoint on a fresh
// engine ends at the clean run's state.
func TestChaosMemoisedGateCorruptionResumes(t *testing.T) {
	const n = 6
	c := grover.Circuit(n, 0b101101, 0)
	ref, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The first oracle gate recurs in every Grover iteration.
	g := c.Gates[n]
	iteration := (len(c.Gates) - n) / grover.Iterations(n)
	for _, swap := range []bool{false, true} {
		for _, before := range []bool{true, false} {
			eng := dd.New()
			path := filepath.Join(t.TempDir(), "run.ckpt")
			var flipped dd.MEdge
			corrupt := func() {
				flipped = eng.GateDD(g.Matrix, n, g.Target, g.Controls)
				corruptMatrix(flipped, swap)
			}
			if before {
				corrupt()
			}
			written := 0
			_, err := Run(c, Options{
				Engine:          eng,
				Strategy:        KOperations{K: 4},
				VerifyEvery:     2 * iteration,
				CheckpointEvery: iteration,
				OnCheckpoint: func(ck *Checkpoint) error {
					if err := SaveCheckpoint(path, ck); err != nil {
						return err
					}
					if written++; written == 1 && !before {
						corrupt()
					}
					return nil
				},
			})
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("swap=%v before=%v: err = %v, want ErrCorruption", swap, before, err)
			}
			if again := eng.GateDD(g.Matrix, n, g.Target, g.Controls); again != flipped {
				t.Fatalf("swap=%v before=%v: the memo did not keep the corrupted gate", swap, before)
			}
			if before {
				if written != 0 {
					t.Fatalf("swap=%v: %d checkpoints written from a corrupt engine", swap, written)
				}
				continue
			}
			fresh := dd.New()
			ck, err := LoadCheckpoint(path, fresh)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := ResumeOptions(Options{Engine: fresh, Strategy: KOperations{K: 4}}, c, ck)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(c, opt)
			if err != nil {
				t.Fatalf("swap=%v: resume from gate %d: %v", swap, ck.NextGate, err)
			}
			vectorsMatch(t, res.State.ToVector(), ref.State.ToVector())
		}
	}
}

// corruptMatrix damages the root node of a matrix DD in place: a
// swap of its diagonal quadrants, or a mid-mantissa bit flip in its
// first non-zero weight.
func corruptMatrix(m dd.MEdge, swap bool) {
	n := m.N
	if swap && n.E[0] != n.E[3] {
		n.E[0], n.E[3] = n.E[3], n.E[0]
		return
	}
	for i, e := range n.E {
		if e.W != 0 {
			n.E[i].W = flipWeight(e.W)
			return
		}
	}
}

// TestCorruptionEmitsEvents checks the observability contract: a run
// ended by corruption emits a failing verify event, counts it in
// dd_verify_failures_total, and emits no other kind of recovery event.
func TestCorruptionEmitsEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := verify.RandomCircuit(rng, 4, 30)
	reg := obs.NewRegistry()
	ring := obs.NewRing(2048)
	_, err := Run(c, Options{
		VerifyEvery:     1,
		CheckpointEvery: 10,
		EventSink:       ring,
		Metrics:         reg,
		OnCheckpoint: func(ck *Checkpoint) error {
			corruptState(ck.State, false)
			return nil
		},
	})
	if !errors.Is(err, ErrCorruption) {
		t.Fatalf("err = %v, want ErrCorruption", err)
	}
	fails := 0
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.KindVerify:
			if e.Check != "" {
				fails++
			}
		case obs.KindRunStart, obs.KindStep, obs.KindCheckpoint, obs.KindAbort, obs.KindRunEnd:
		default:
			t.Errorf("unexpected %v event: %+v", e.Kind, e)
		}
	}
	if fails != 1 {
		t.Fatalf("%d failing verify events, want 1", fails)
	}
	failures := -1.0
	for _, m := range reg.Snapshot() {
		if m.Name == "dd_verify_failures_total" {
			failures = m.Value
		}
	}
	if failures != 1 {
		t.Fatalf("dd_verify_failures_total = %v, want 1", failures)
	}
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
