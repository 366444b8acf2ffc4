package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/dd"
	"repro/internal/grover"
)

// vectorsMatch compares two amplitude vectors elementwise.
func vectorsMatch(t *testing.T, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for i := range want {
		d := got[i] - want[i]
		if real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("amplitude %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestRunContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := randomCircuit(rng, 6, 200, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, c, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailureCanceled {
		t.Fatalf("err = %#v, want *RunError with FailureCanceled", err)
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if res.GatesApplied != 0 {
		t.Fatalf("pre-canceled run applied %d gates", res.GatesApplied)
	}
}

func TestRunContextCancelMidMultiplication(t *testing.T) {
	// combine-all on a deep wide circuit spends its time inside
	// multiplications; cancellation must reach in there via the
	// engine-level probes.
	rng := rand.New(rand.NewSource(32))
	c := randomCircuit(rng, 14, 400, false)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, c, Options{Strategy: CombineAll{}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Fatal("cancellation misclassified as deadline")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestBudgetFallbackCompletes is the graceful-degradation acceptance
// test: a Grover run whose combination strategy cannot fit the node
// budget must complete anyway by replaying the tripped gate runs one
// gate at a time (rung-2 "replay" entries in the journal), while the
// same budget with Degrade "off" aborts.
func TestBudgetFallbackCompletes(t *testing.T) {
	n := 10
	c := grover.Circuit(n, 3, grover.Iterations(n))
	want, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}

	st := MaxSize{SMax: 1 << 20} // combine without bound; only the budget stops it
	var fed []Degradation
	res, err := Run(c, Options{Strategy: st, MaxNodes: 150,
		OnPressure: func(d Degradation) { fed = append(fed, d) }})
	if err != nil {
		t.Fatalf("budgeted run did not complete via replay: %v", err)
	}
	if res.Replays() == 0 {
		t.Fatal("budgeted max-size run recorded no replays")
	}
	if !slices.Equal(fed, res.Degradations) {
		t.Fatalf("OnPressure saw %d entries, journal holds %d", len(fed), len(res.Degradations))
	}
	for _, d := range res.Degradations {
		// Without a soft budget only the replay rung is armed.
		if d.Action != "replay" || d.Rung != 2 || d.Level != "critical" {
			t.Fatalf("journal entry %+v, want only rung-2 critical replays", d)
		}
		if d.LiveAfter > d.LiveBefore {
			t.Fatalf("replay collection grew the live set: %+v", d)
		}
	}
	if res.GatesApplied != len(c.Gates) {
		t.Fatalf("applied %d of %d gates", res.GatesApplied, len(c.Gates))
	}
	vectorsMatch(t, res.State.ToVector(), want.State.ToVector())

	// Same cap, ladder off: the run must abort with a typed budget
	// error, hand back partial progress and journal nothing.
	res, err = Run(c, Options{Strategy: st, MaxNodes: 150, Degrade: "off"})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailureBudget {
		t.Fatalf("err = %#v, want *RunError with FailureBudget", err)
	}
	if res == nil || len(res.Degradations) != 0 {
		t.Fatalf("Degrade off still degraded: %+v", res)
	}
	if res.GatesApplied >= len(c.Gates) {
		t.Fatalf("aborted run reports %d of %d gates applied", res.GatesApplied, len(c.Gates))
	}
}

// TestBudgetFallbackTracing checks that a replay re-applies its gate
// run one gate per traced step: after each replay entry, the trace
// holds single-gate steps covering the gates up to the next flush the
// strategy would not have made.
func TestBudgetFallbackTracing(t *testing.T) {
	c := grover.Circuit(10, 3, grover.Iterations(10))
	res, err := Run(c, Options{Strategy: MaxSize{SMax: 1 << 20}, MaxNodes: 150, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays() == 0 {
		t.Fatal("budget never tripped; replay path untested")
	}
	for _, d := range res.Degradations {
		// The first step after the replay entry re-applies the gate
		// the state stopped at, on its own.
		i := sort.Search(len(res.Trace), func(i int) bool { return res.Trace[i].GateIndex > d.GateIndex })
		if i == len(res.Trace) {
			t.Fatalf("no step after the replay at gate %d", d.GateIndex)
		}
		if tp := res.Trace[i]; tp.GateIndex != d.GateIndex+1 || tp.Combined != 1 {
			t.Fatalf("step after the replay at gate %d: %+v, want gate %d alone",
				d.GateIndex, tp, d.GateIndex+1)
		}
	}
}

func TestPanicRecoveredToRunError(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	c := randomCircuit(rng, 4, 20, false)
	res, err := Run(c, Options{Strategy: panicStrategy{}})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailurePanic {
		t.Fatalf("err = %v, want *RunError with FailurePanic", err)
	}
	if res == nil {
		t.Fatal("recovered panic returned no partial result")
	}
}

type panicStrategy struct{}

func (panicStrategy) Name() string { return "panic" }
func (panicStrategy) ShouldApply(combined int, _, _ func() int) bool {
	if combined >= 3 {
		panic("strategy blew up")
	}
	return false
}

// TestInjectedAbortSurfacesTyped chaos-tests the whole recovery path:
// a synthetic engine abort at an exact kernel probe surfaces as a
// typed *RunError with a partial result, and the engine remains usable
// for a follow-up run.
func TestInjectedAbortSurfacesTyped(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	rng := rand.New(rand.NewSource(34))
	c := randomCircuit(rng, 8, 120, false)
	eng := dd.New()
	if !eng.InjectAbortAfter(500, dd.AbortInjected) {
		t.Fatal("fault injection did not arm")
	}
	res, err := Run(c, Options{Engine: eng})
	if !errors.Is(err, ErrInjectedAbort) {
		t.Fatalf("err = %v, want ErrInjectedAbort", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailureInjected {
		t.Fatalf("err = %#v, want FailureInjected", err)
	}
	if res == nil || res.GatesApplied >= len(c.Gates) {
		t.Fatalf("injected abort reported full completion: %+v", res)
	}
	// Injection is one-shot; the same engine must finish a clean re-run.
	clean, err := Run(c, Options{Engine: eng})
	if err != nil {
		t.Fatalf("engine unusable after injected abort: %v", err)
	}
	if f := fidelityWithDense(t, clean, c); f < 1-1e-9 {
		t.Fatalf("post-abort fidelity %v", f)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	e1 := dd.New()
	v := e1.FromVector(randAmps(rng, 5))
	ck := &Checkpoint{CircuitName: "rt", NQubits: 5, NextGate: 17, Seed: 99, Fallbacks: 2, State: v}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	e2 := dd.New()
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), e2)
	if err != nil {
		t.Fatal(err)
	}
	if got.CircuitName != "rt" || got.NQubits != 5 || got.NextGate != 17 || got.Seed != 99 || got.Fallbacks != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	vectorsMatch(t, got.State.ToVector(), v.ToVector())

	if _, err := ReadCheckpoint(bytes.NewReader([]byte("NOTACKPT")), e2); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func randAmps(rng *rand.Rand, n int) []complex128 {
	amps := make([]complex128, 1<<n)
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	s := complex(1/sqrtFloat(norm), 0)
	for i := range amps {
		amps[i] *= s
	}
	return amps
}

func sqrtFloat(x float64) float64 {
	// small helper to avoid importing math just for this file's tests
	z := x
	for i := 0; i < 40; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// TestKillAndResume is the checkpoint/resume acceptance test: a run is
// "killed" mid-flight (the checkpoint sink errors once it has a
// mid-circuit snapshot), then resumed from the saved checkpoint on a
// fresh engine; the resumed final state must match an uninterrupted
// run exactly.
func TestKillAndResume(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	c := randomCircuit(rng, 6, 120, false)
	c.Name = "killme"

	want, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	killed := errors.New("simulated kill")
	_, err = Run(c, Options{
		Seed:            7,
		CheckpointEvery: 10,
		OnCheckpoint: func(ck *Checkpoint) error {
			if ck.NextGate < 30 {
				return SaveCheckpoint(path, ck)
			}
			if err := SaveCheckpoint(path, ck); err != nil {
				return err
			}
			return killed
		},
	})
	if !errors.Is(err, killed) {
		t.Fatalf("err = %v, want the simulated kill", err)
	}

	eng := dd.New()
	ck, err := LoadCheckpoint(path, eng)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextGate <= 0 || ck.NextGate >= len(c.Gates) {
		t.Fatalf("checkpoint at gate %d of %d — not mid-flight", ck.NextGate, len(c.Gates))
	}
	if ck.Seed != 7 {
		t.Fatalf("checkpoint seed %d, want 7", ck.Seed)
	}
	opt, err := ResumeOptions(Options{Engine: eng}, c, ck)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.GatesApplied != len(c.Gates) {
		t.Fatalf("resumed run applied %d of %d gates", res.GatesApplied, len(c.Gates))
	}
	vectorsMatch(t, res.State.ToVector(), want.State.ToVector())
}

// TestAbortCheckpoint checks that an aborting run emits a final
// checkpoint so progress is never lost.
func TestAbortCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	c := randomCircuit(rng, 6, 300, false)
	var last *Checkpoint
	var lastVec []complex128
	res, err := Run(c, Options{
		Deadline: time.Now().Add(-time.Second),
		OnCheckpoint: func(ck *Checkpoint) error {
			last = ck
			lastVec = ck.State.ToVector()
			return nil
		},
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if last == nil {
		t.Fatal("abort emitted no checkpoint")
	}
	if last.NextGate != res.GatesApplied {
		t.Fatalf("checkpoint gate %d != applied %d", last.NextGate, res.GatesApplied)
	}
	if len(lastVec) != 1<<c.NQubits {
		t.Fatalf("checkpoint state spans %d amplitudes", len(lastVec))
	}
}

// TestResumeOptionsValidates rejects checkpoints that do not match the
// circuit.
func TestResumeOptionsValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	c := randomCircuit(rng, 5, 20, false)
	c.Name = "target"
	e := dd.New()
	state := e.ZeroState(4)
	if _, err := ResumeOptions(Options{}, c, &Checkpoint{NQubits: 4, State: state}); err == nil {
		t.Fatal("qubit mismatch accepted")
	}
	st5 := e.ZeroState(5)
	if _, err := ResumeOptions(Options{}, c, &Checkpoint{NQubits: 5, NextGate: len(c.Gates) + 1, State: st5}); err == nil {
		t.Fatal("out-of-range gate index accepted")
	}
	if _, err := ResumeOptions(Options{}, c, &Checkpoint{CircuitName: "other", NQubits: 5, State: st5}); err == nil {
		t.Fatal("circuit name mismatch accepted")
	}
}

// TestDeadlinePartialProgress checks the partial-result contract: an
// aborted run reports how far it got and keeps a consistent state.
func TestDeadlinePartialProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	c := randomCircuit(rng, 12, 600, false)
	deadline := time.Now().Add(30 * time.Millisecond)
	res, err := Run(c, Options{Deadline: deadline})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Skipf("machine too fast for a 30ms deadline on this circuit (err=%v)", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if res.GatesApplied < 0 || res.GatesApplied > len(c.Gates) {
		t.Fatalf("GatesApplied %d out of range", res.GatesApplied)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err %T is not *RunError", err)
	}
	if re.GateIndex < res.GatesApplied {
		t.Fatalf("failing gate %d precedes applied prefix %d", re.GateIndex, res.GatesApplied)
	}
}
