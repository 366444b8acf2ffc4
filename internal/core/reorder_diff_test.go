// Differential tests for dynamic variable reordering: every strategy,
// with sifting forced aggressively, must reproduce the fixed-order
// amplitudes exactly (up to weight-canonicalisation drift), including
// across a mid-run checkpoint/resume under a non-identity order. The
// file lives in the external test package so it can drive the real
// workload generators (internal/shor imports core).
package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnum"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/grover"
	"repro/internal/obs"
	"repro/internal/qft"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// siftHard returns options that force a sifting pass at essentially
// every flush boundary — the worst case for order bookkeeping.
func siftHard(st core.Strategy) core.Options {
	return core.Options{
		Strategy:     st,
		Reorder:      "sifting",
		SiftMinNodes: 1,
		SiftGrowth:   1,
	}
}

// fidelity returns |<b|a>|² for two amplitude slices.
func fidelity(a, b []complex128) float64 {
	var ip complex128
	for i := range a {
		ip += complex(real(b[i]), -imag(b[i])) * a[i]
	}
	return cnum.Abs2(ip)
}

// Heavy sifting rounds every touched weight through the canonical
// table (up to cnum.Tol per operation), so the acceptance margin is looser
// than verify.FidelityTol; a genuine permutation bug costs orders of
// magnitude more.
const siftFidelityTol = 1e-7

func reorderTestCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	ua, _, err := shor.ControlledUaCircuit(15, 7)
	if err != nil {
		t.Fatal(err)
	}
	ua.Name = "shor_15_7_ua"
	return []*circuit.Circuit{
		grover.Circuit(8, 0x2d, 0),
		qft.Circuit(8, true),
		supremacy.Circuit(2, 3, 8, 7),
		ua,
	}
}

// TestReorderDifferentialAcrossStrategies compares sifting-forced and
// static-order runs against the fixed-order amplitudes for the paper's
// workload families under every combination strategy.
func TestReorderDifferentialAcrossStrategies(t *testing.T) {
	planner, err := core.NewStrategy("planner", core.StrategyKnobs{})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []core.Strategy{
		core.Sequential{},
		core.KOperations{K: 4},
		core.MaxSize{SMax: 128},
		planner,
	}
	for _, c := range reorderTestCircuits(t) {
		ref, err := core.Run(c, core.Options{})
		if err != nil {
			t.Fatalf("%s: reference run: %v", c.Name, err)
		}
		refAmps := ref.State.ToVector()
		for _, st := range strategies {
			for _, mode := range []string{"sifting", "static"} {
				opt := siftHard(st)
				opt.Reorder = mode
				res, err := core.Run(c, opt)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", c.Name, st.Name(), mode, err)
				}
				if res.Order != nil && !dd.IsPermutation(res.Order) {
					t.Fatalf("%s/%s/%s: final order %v not a permutation", c.Name, st.Name(), mode, res.Order)
				}
				amps := dd.VectorInOrder(res.State, res.Order)
				if f := fidelity(amps, refAmps); f < 1-siftFidelityTol {
					t.Fatalf("%s/%s/%s: fidelity %.12f (order %v)", c.Name, st.Name(), mode, f, res.Order)
				}
				if err := res.Engine.AuditV(res.State); err != nil {
					t.Fatalf("%s/%s/%s: %v", c.Name, st.Name(), mode, err)
				}
			}
		}
	}
}

// TestReorderCheckpointResume checkpoints mid-run under a non-identity
// order, round-trips the checkpoint through its byte encoding into a
// fresh engine, resumes, and compares against a straight fixed-order
// run. Covered twice: an explicit reversed initial order (deterministic
// non-identity order, no sifting), and aggressive sifting.
func TestReorderCheckpointResume(t *testing.T) {
	c := qft.Circuit(8, true)
	ref, err := core.Run(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refAmps := ref.State.ToVector()

	reversed := make([]int, c.NQubits)
	for i := range reversed {
		reversed[i] = c.NQubits - 1 - i
	}

	cases := []struct {
		name string
		opt  core.Options
	}{
		{"reversed-initial-order", core.Options{InitialOrder: reversed}},
		{"sifting", siftHard(core.KOperations{K: 4})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ckBytes []byte
			opt := tc.opt
			opt.CheckpointEvery = 7
			opt.OnCheckpoint = func(ck *core.Checkpoint) error {
				if ckBytes == nil && ck.NextGate > 0 && ck.NextGate < c.GateCount() {
					if tc.name == "reversed-initial-order" && ck.Order == nil {
						t.Fatal("mid-run checkpoint lost the non-identity order")
					}
					var buf bytes.Buffer
					if err := core.WriteCheckpoint(&buf, ck); err != nil {
						return err
					}
					ckBytes = buf.Bytes()
				}
				return nil
			}
			full, err := core.Run(c, opt)
			if err != nil {
				t.Fatal(err)
			}
			if ckBytes == nil {
				t.Fatal("no mid-run checkpoint captured")
			}
			if f := fidelity(dd.VectorInOrder(full.State, full.Order), refAmps); f < 1-siftFidelityTol {
				t.Fatalf("uninterrupted run fidelity %.12f", f)
			}

			eng := dd.New()
			ck, err := core.ReadCheckpoint(bytes.NewReader(ckBytes), eng)
			if err != nil {
				t.Fatal(err)
			}
			resumeOpt := tc.opt
			resumeOpt.Engine = eng
			resumeOpt.Strategy = nil // adopt the recorded strategy
			resumeOpt, err = core.ResumeOptions(resumeOpt, c, ck)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(c, resumeOpt)
			if err != nil {
				t.Fatal(err)
			}
			if f := fidelity(dd.VectorInOrder(res.State, res.Order), refAmps); f < 1-siftFidelityTol {
				t.Fatalf("resumed run fidelity %.12f (resumed at gate %d under order %v)",
					f, ck.NextGate, ck.Order)
			}
		})
	}
}

// TestShorGateLevelWithSifting runs the semiclassical Shor simulation —
// which resets a qubit between core runs and must map it through the
// live order — with sifting forced, and checks the measured phase and
// factors agree with the fixed-order run under the same rng stream.
func TestShorGateLevelWithSifting(t *testing.T) {
	ref, err := shor.SimulateGateLevel(15, 7, core.Options{}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := shor.SimulateGateLevel(15, 7, siftHard(core.Sequential{}), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phase != ref.Phase {
		t.Fatalf("sifting changed the measured phase: %d vs %d", res.Phase, ref.Phase)
	}
}

// TestReorderOptionValidation covers the Options error paths.
func TestReorderOptionValidation(t *testing.T) {
	c := qft.Circuit(4, true)
	if _, err := core.Run(c, core.Options{Reorder: "bogus"}); err == nil {
		t.Fatal("unknown Reorder mode accepted")
	}
	for _, bad := range [][]int{{0, 0, 1, 2}, {0, 1, 2}, {0, 1, 2, 4}} {
		if _, err := core.Run(c, core.Options{InitialOrder: bad}); err == nil {
			t.Fatalf("invalid InitialOrder %v accepted", bad)
		}
	}
}

// TestReorderEventsAndStats checks the observability contract: a
// sifting run emits KindReorder events whose swap counts match the
// run-total stats, and the run_end event carries the totals.
func TestReorderEventsAndStats(t *testing.T) {
	ring := obs.NewRing(4096)
	opt := siftHard(core.Sequential{})
	opt.EventSink = ring
	res, err := core.Run(supremacy.Circuit(2, 3, 8, 7), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReorderSwaps == 0 || res.Stats.SiftPasses == 0 {
		t.Fatalf("forced sifting did no work: %+v", res.Stats)
	}
	var evSwaps uint64
	var reorders int
	var runEnd *obs.Event
	for _, ev := range ring.Events() {
		ev := ev
		switch ev.Kind {
		case obs.KindReorder:
			reorders++
			evSwaps += ev.Swaps
			if ev.NodesBefore <= 0 || ev.NodesAfter <= 0 {
				t.Fatalf("reorder event without node sizes: %+v", ev)
			}
		case obs.KindRunEnd:
			runEnd = &ev
		}
	}
	if reorders == 0 {
		t.Fatal("no KindReorder events emitted")
	}
	if evSwaps != res.Stats.ReorderSwaps {
		t.Fatalf("event swap total %d, stats %d", evSwaps, res.Stats.ReorderSwaps)
	}
	if runEnd == nil || runEnd.Swaps != res.Stats.ReorderSwaps || runEnd.SiftPasses != res.Stats.SiftPasses {
		t.Fatalf("run_end totals missing or wrong: %+v", runEnd)
	}
}
