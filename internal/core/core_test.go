package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/gates"
)

// randomCircuit builds a seeded random circuit with single-qubit gates
// and controlled gates, optionally with a repeated block.
func randomCircuit(rng *rand.Rand, n, length int, withBlock bool) *circuit.Circuit {
	c := circuit.New(n)
	add := func(c *circuit.Circuit) {
		switch rng.Intn(6) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.P(rng.Float64()*2*math.Pi, rng.Intn(n))
		case 3:
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b {
				b = (b + 1) % n
			}
			c.CX(a, b)
		case 4:
			c.SX(rng.Intn(n))
		default:
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b {
				b = (b + 1) % n
			}
			c.CP(rng.Float64()*math.Pi, a, b)
		}
	}
	for i := 0; i < length/2; i++ {
		add(c)
	}
	if withBlock && length >= 8 {
		// Deterministic body so repetitions match exactly.
		c.Repeat("blk", 3, func(c *circuit.Circuit) {
			c.H(0)
			c.CX(0, n-1)
			c.T(n - 1)
		})
	}
	for i := 0; i < length/2; i++ {
		add(c)
	}
	return c
}

func fidelityWithDense(t *testing.T, res *Result, c *circuit.Circuit) float64 {
	t.Helper()
	want := dense.Simulate(c)
	got := res.State.ToVector()
	var ip complex128
	for i := range got {
		ip += complex(real(want.Amps[i]), -imag(want.Amps[i])) * got[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

func TestAllStrategiesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	strategies := []Strategy{
		Sequential{},
		KOperations{K: 2},
		KOperations{K: 4},
		KOperations{K: 16},
		MaxSize{SMax: 4},
		MaxSize{SMax: 64},
		CombineAll{},
	}
	for trial := 0; trial < 6; trial++ {
		n := 2 + rng.Intn(4)
		c := randomCircuit(rng, n, 40, trial%2 == 0)
		for _, st := range strategies {
			for _, useBlocks := range []bool{false, true} {
				res, err := Run(c, Options{Strategy: st, UseBlocks: useBlocks})
				if err != nil {
					t.Fatalf("%s blocks=%v: %v", st.Name(), useBlocks, err)
				}
				if f := fidelityWithDense(t, res, c); f < 1-1e-9 {
					t.Fatalf("%s blocks=%v: fidelity %v", st.Name(), useBlocks, f)
				}
				if math.Abs(res.State.Norm()-1) > 1e-9 {
					t.Fatalf("%s: norm %v", st.Name(), res.State.Norm())
				}
			}
		}
	}
}

func TestSequentialCounts(t *testing.T) {
	c := circuit.New(3)
	c.H(0).CX(0, 1).T(2).CCX(0, 1, 2).H(1)
	res, err := Run(c, Options{Strategy: Sequential{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatVecSteps != c.GateCount() {
		t.Fatalf("sequential matvec steps %d, want %d", res.MatVecSteps, c.GateCount())
	}
	if res.MatMatSteps != 0 {
		t.Fatalf("sequential matmat steps %d, want 0", res.MatMatSteps)
	}
}

func TestKOperationsCounts(t *testing.T) {
	c := circuit.New(3)
	for i := 0; i < 12; i++ {
		c.H(i % 3)
	}
	res, err := Run(c, Options{Strategy: KOperations{K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// 12 gates in groups of 4: 3 matvec steps, 3*(4-1) = 9 matmat steps.
	if res.MatVecSteps != 3 {
		t.Fatalf("matvec steps %d, want 3", res.MatVecSteps)
	}
	if res.MatMatSteps != 9 {
		t.Fatalf("matmat steps %d, want 9", res.MatMatSteps)
	}
}

func TestKOperationsTrailingPartialGroup(t *testing.T) {
	c := circuit.New(2)
	for i := 0; i < 5; i++ {
		c.H(i % 2)
	}
	res, err := Run(c, Options{Strategy: KOperations{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Groups: 3 + 2 → 2 matvec steps, (2)+(1) = 3 matmat steps.
	if res.MatVecSteps != 2 || res.MatMatSteps != 3 {
		t.Fatalf("steps = (%d,%d), want (2,3)", res.MatVecSteps, res.MatMatSteps)
	}
}

func TestCombineAllSingleApply(t *testing.T) {
	c := circuit.New(3)
	for i := 0; i < 9; i++ {
		c.T(i % 3)
	}
	res, err := Run(c, Options{Strategy: CombineAll{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatVecSteps != 1 {
		t.Fatalf("combine-all matvec steps %d, want 1", res.MatVecSteps)
	}
	if res.MatMatSteps != 8 {
		t.Fatalf("combine-all matmat steps %d, want 8", res.MatMatSteps)
	}
}

func TestBlocksReuseMatrix(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.Repeat("iter", 5, func(c *circuit.Circuit) {
		c.CX(0, 1)
		c.T(1)
		c.CX(1, 2)
	})
	// With blocks: body (3 gates) combined once = 2 matmat, then 5 matvec
	// applications + 1 for the leading H.
	res, err := Run(c, Options{Strategy: Sequential{}, UseBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatVecSteps != 6 {
		t.Fatalf("matvec steps %d, want 6", res.MatVecSteps)
	}
	if res.MatMatSteps != 2 {
		t.Fatalf("matmat steps %d, want 2 (body combined once)", res.MatMatSteps)
	}
	// Without blocks the same circuit costs 16 matvec steps.
	res2, err := Run(c, Options{Strategy: Sequential{}, UseBlocks: false})
	if err != nil {
		t.Fatal(err)
	}
	if res2.MatVecSteps != 16 {
		t.Fatalf("matvec steps %d, want 16", res2.MatVecSteps)
	}
	// Both must agree with the dense oracle.
	if f := fidelityWithDense(t, res, c); f < 1-1e-9 {
		t.Fatalf("blocks run fidelity %v", f)
	}
}

func TestTraceRecording(t *testing.T) {
	c := circuit.New(2)
	c.H(0).CX(0, 1).T(1).H(1)
	res, err := Run(c, Options{Strategy: KOperations{K: 2}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 {
		t.Fatalf("trace length %d, want 2", len(res.Trace))
	}
	for _, tp := range res.Trace {
		if tp.OpSize <= 0 || tp.StateSize <= 0 || tp.Combined != 2 {
			t.Fatalf("bad trace point %+v", tp)
		}
	}
	if res.Trace[1].GateIndex != 4 {
		t.Fatalf("final trace gate index %d, want 4", res.Trace[1].GateIndex)
	}
}

func TestTraceBlocks(t *testing.T) {
	c := circuit.New(2)
	c.Repeat("r", 3, func(c *circuit.Circuit) { c.H(0); c.CX(0, 1) })
	res, err := Run(c, Options{Strategy: Sequential{}, UseBlocks: true, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 3 {
		t.Fatalf("trace length %d, want 3", len(res.Trace))
	}
	if res.Trace[0].BlockReuse || !res.Trace[1].BlockReuse || !res.Trace[2].BlockReuse {
		t.Fatalf("block reuse flags wrong: %+v", res.Trace)
	}
	for _, tp := range res.Trace {
		if !tp.FromBlock || tp.BlockName != "r" {
			t.Fatalf("block annotation missing: %+v", tp)
		}
	}
}

func TestGCDuringRun(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(rng, 6, 200, false)
	old := gcLiveThreshold
	gcLiveThreshold = 64
	t.Cleanup(func() { gcLiveThreshold = old })
	res, err := Run(c, Options{Strategy: KOperations{K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GCs == 0 {
		t.Fatal("expected at least one garbage collection")
	}
	if f := fidelityWithDense(t, res, c); f < 1-1e-9 {
		t.Fatalf("fidelity after GC runs: %v", f)
	}
}

// TestGCThresholdClampsToBudget: routine GC triggers at ¾ of the
// tighter of MaxNodes and the soft budget whenever that is below
// gcLiveThreshold.
func TestGCThresholdClampsToBudget(t *testing.T) {
	for _, tc := range []struct{ maxNodes, soft, want int }{
		{0, 0, gcLiveThreshold},
		{1000, 0, 750},
		{1000, 800, 600},
		{0, 400, 300},
	} {
		r := &runner{opt: Options{MaxNodes: tc.maxNodes, SoftBudget: tc.soft}}
		if got := r.gcThreshold(); got != tc.want {
			t.Fatalf("MaxNodes %d, SoftBudget %d: threshold %d, want %d",
				tc.maxNodes, tc.soft, got, tc.want)
		}
	}
}

func TestInitialStateOption(t *testing.T) {
	eng := dd.New()
	init := eng.BasisState(2, 3)
	c := circuit.New(2)
	c.X(0)
	res, err := Run(c, Options{Engine: eng, InitialState: &init})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.State.Amplitude(2); math.Abs(real(got)-1) > 1e-9 {
		t.Fatalf("X|11> amplitude at |10> = %v, want 1", got)
	}
	// Mismatched span must error.
	bad := eng.BasisState(3, 0)
	if _, err := Run(c, Options{Engine: eng, InitialState: &bad}); err == nil {
		t.Fatal("expected error for mismatched initial state")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("nil circuit accepted")
	}
	bad := circuit.New(2)
	bad.Gates = append(bad.Gates, circuit.Gate{Name: "bogus", Matrix: gates.Matrix{{2, 0}, {0, 1}}, Target: 0})
	if _, err := Run(bad, Options{}); err == nil {
		t.Fatal("non-unitary gate accepted")
	}
}

func TestCombineGates(t *testing.T) {
	eng := dd.New()
	c := circuit.New(2)
	c.H(0).CX(0, 1)
	m, err := CombineGates(eng, c, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Must equal CX·(H⊗I): applying it to |00> gives the Bell state.
	v := eng.MulVec(m, eng.ZeroState(2))
	w := complex(1/math.Sqrt2, 0)
	if got := v.Amplitude(0); math.Abs(real(got)-real(w)) > 1e-9 {
		t.Fatalf("Bell amplitude(00) = %v", got)
	}
	if got := v.Amplitude(3); math.Abs(real(got)-real(w)) > 1e-9 {
		t.Fatalf("Bell amplitude(11) = %v", got)
	}
	if _, err := CombineGates(eng, c, 1, 1); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := CombineGates(eng, c, 0, 5); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestFullMatrixOfEmptyCircuit(t *testing.T) {
	eng := dd.New()
	c := circuit.New(3)
	m, err := FullMatrix(eng, c)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != eng.Identity(3).N {
		t.Fatal("empty circuit matrix is not the identity")
	}
}

func TestStrategyNames(t *testing.T) {
	if (Sequential{}).Name() != "sequential" {
		t.Error("sequential name")
	}
	if (KOperations{K: 4}).Name() != "k-operations(k=4)" {
		t.Error("k-operations name")
	}
	if (MaxSize{SMax: 32}).Name() != "max-size(s=32)" {
		t.Error("max-size name")
	}
	if (CombineAll{}).Name() != "combine-all" {
		t.Error("combine-all name")
	}
}

// Nonsensical strategy parameters must be rejected at RunContext entry
// with a typed *ConfigError — before this check, KOperations{K: 0} and
// MaxSize{SMax: 0} ran but silently degenerated to sequential behaviour
// under a misleading Name().
func TestStrategyValidation(t *testing.T) {
	c := circuit.New(2)
	c.H(0).CX(0, 1)
	bad := []Strategy{
		KOperations{},
		KOperations{K: -3},
		MaxSize{},
		MaxSize{SMax: -1},
		&Planner{},
	}
	for _, st := range bad {
		res, err := Run(c, Options{Strategy: st})
		if err == nil {
			t.Fatalf("%T %+v: accepted", st, st)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%T %+v: error %v is not a *ConfigError", st, st, err)
		}
		if res != nil {
			t.Fatalf("%T: configuration error must not produce a partial result", st)
		}
	}
	good := []Strategy{
		KOperations{K: 1},
		MaxSize{SMax: 1},
		Planner{},
		Sequential{},
		CombineAll{},
	}
	for _, st := range good {
		if _, err := Run(c, Options{Strategy: st}); err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
	}
}

// NewStrategy is the shared table behind the ddsim flags and the
// ddserve decoder: zero knobs select defaults, negatives are typed
// errors, unknown names enumerate the accepted set.
func TestNewStrategy(t *testing.T) {
	cases := []struct {
		name string
		kn   StrategyKnobs
		want string
	}{
		{"sequential", StrategyKnobs{}, "sequential"},
		{"k-operations", StrategyKnobs{}, "k-operations(k=4)"},
		{"k-operations", StrategyKnobs{K: 7}, "k-operations(k=7)"},
		{"max-size", StrategyKnobs{}, "max-size(s=128)"},
		{"planner", StrategyKnobs{}, "planner"},
		{"combine-all", StrategyKnobs{}, "combine-all"},
	}
	for _, tc := range cases {
		st, err := NewStrategy(tc.name, tc.kn)
		if err != nil {
			t.Fatalf("%s %+v: %v", tc.name, tc.kn, err)
		}
		if st.Name() != tc.want {
			t.Fatalf("%s %+v: name %q, want %q", tc.name, tc.kn, st.Name(), tc.want)
		}
	}
	var ce *ConfigError
	if _, err := NewStrategy("nope", StrategyKnobs{}); !errors.As(err, &ce) {
		t.Fatalf("unknown name: %v", err)
	}
	if _, err := NewStrategy("k-operations", StrategyKnobs{K: -1}); !errors.As(err, &ce) {
		t.Fatalf("negative k: %v", err)
	}
	if _, err := NewStrategy("adaptive", StrategyKnobs{}); !errors.As(err, &ce) || !strings.Contains(ce.Msg, `"adaptive" was removed`) {
		t.Fatalf("removed adaptive: %v", err)
	}
	// Every canonical selector must construct with default knobs and
	// survive the checkpoint name round-trip.
	for _, name := range StrategyNames() {
		st, err := NewStrategy(name, StrategyKnobs{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := StrategyFromName(st.Name())
		if err != nil {
			t.Fatalf("%s: StrategyFromName(%q): %v", name, st.Name(), err)
		}
		if back.Name() != st.Name() {
			t.Fatalf("%s: round trip %q -> %q", name, st.Name(), back.Name())
		}
	}
}

// Property: for any k and s_max, results are identical to sequential.
func TestStrategyEquivalenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := randomCircuit(rng, 4, 30, false)
	ref, err := Run(c, Options{Strategy: Sequential{}})
	if err != nil {
		t.Fatal(err)
	}
	refVec := ref.State.ToVector()
	for k := 1; k <= 32; k *= 2 {
		res, err := Run(c, Options{Strategy: KOperations{K: k}})
		if err != nil {
			t.Fatal(err)
		}
		vec := res.State.ToVector()
		for i := range vec {
			if d := vec[i] - refVec[i]; math.Abs(real(d)) > 1e-8 || math.Abs(imag(d)) > 1e-8 {
				t.Fatalf("k=%d: amplitude %d differs: %v vs %v", k, i, vec[i], refVec[i])
			}
		}
	}
	for s := 1; s <= 1024; s *= 4 {
		res, err := Run(c, Options{Strategy: MaxSize{SMax: s}})
		if err != nil {
			t.Fatal(err)
		}
		vec := res.State.ToVector()
		for i := range vec {
			if d := vec[i] - refVec[i]; math.Abs(real(d)) > 1e-8 || math.Abs(imag(d)) > 1e-8 {
				t.Fatalf("s=%d: amplitude %d differs", s, i)
			}
		}
	}
}

func TestDeadlineExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng, 6, 500, false)
	_, err := Run(c, Options{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	// A generous deadline must not interfere.
	res, err := Run(c, Options{Deadline: time.Now().Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if f := fidelityWithDense(t, res, c); f < 1-1e-9 {
		t.Fatalf("fidelity %v", f)
	}
}

// stallStrategy flushes after every gate, but first sleeps until its
// wake time, so the flush's multiplication starts on a context already
// past its deadline and only the engine's probe inside it can stop it.
type stallStrategy struct{ wake time.Time }

func (s stallStrategy) Name() string { return "stall" }

func (s stallStrategy) ShouldApply(int, func() int, func() int) bool {
	time.Sleep(time.Until(s.wake))
	return true
}

// TestContextDeadlineClassification: the run's context is its only
// clock. Options.Deadline and the caller's own deadline both end in
// FailureDeadline with context.DeadlineExceeded as the cause — between
// steps or from inside a multiplication — while any other context end
// is FailureCanceled.
func TestContextDeadlineClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	short := randomCircuit(rng, 6, 500, false)
	const n = 12
	long := circuit.New(n)
	long.H(n - 1).H(0)
	expired := func() (context.Context, context.CancelFunc) {
		return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	}
	canceled := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, cancel
	}
	background := func() (context.Context, context.CancelFunc) {
		return context.Background(), func() {}
	}
	for _, tc := range []struct {
		name     string
		c        *circuit.Circuit
		ctx      func() (context.Context, context.CancelFunc)
		opt      func(eng *dd.Engine) Options
		kind     FailureKind
		sentinel error
		cause    error
		inKernel bool // the engine's probe, not checkAbort, stopped the run
	}{
		{"past Options.Deadline", short, background,
			func(*dd.Engine) Options { return Options{Deadline: time.Now().Add(-time.Second)} },
			FailureDeadline, ErrDeadlineExceeded, context.DeadlineExceeded, false},
		{"deadline inside a multiplication", long, background,
			func(eng *dd.Engine) Options {
				init := eng.FromVector(randAmps(rand.New(rand.NewSource(6)), n))
				deadline := time.Now().Add(20 * time.Millisecond)
				return Options{Engine: eng, InitialState: &init, Deadline: deadline,
					Strategy: stallStrategy{wake: deadline.Add(50 * time.Millisecond)}}
			},
			FailureDeadline, ErrDeadlineExceeded, context.DeadlineExceeded, true},
		{"canceled caller context", short, canceled,
			func(*dd.Engine) Options { return Options{} },
			FailureCanceled, ErrCanceled, context.Canceled, false},
		{"caller context deadline", short, expired,
			func(*dd.Engine) Options { return Options{} },
			FailureDeadline, ErrDeadlineExceeded, context.DeadlineExceeded, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := tc.ctx()
			defer cancel()
			res, err := RunContext(ctx, tc.c, tc.opt(dd.New()))
			var re *RunError
			if !errors.As(err, &re) || re.Kind != tc.kind || !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want %v wrapping %v", err, tc.kind, tc.sentinel)
			}
			if !errors.Is(re.Cause, tc.cause) {
				t.Fatalf("cause = %v, want %v reachable", re.Cause, tc.cause)
			}
			var ab *dd.AbortError
			if inKernel := errors.As(re.Cause, &ab); inKernel != tc.inKernel {
				t.Fatalf("engine abort in cause = %v (%v), want %v", inKernel, re.Cause, tc.inKernel)
			}
			if !tc.inKernel && (re.GateIndex != 0 || res.GatesApplied != 0) {
				t.Fatalf("stopped at gate %d with %d applied, want before gate 0", re.GateIndex, res.GatesApplied)
			}
			if tc.inKernel && ab.Reason != dd.AbortDeadline {
				t.Fatalf("engine abort reason %v, want deadline", ab.Reason)
			}
		})
	}
}

func TestDeadlineAbortsMidMultiplication(t *testing.T) {
	// combine-all on a deep random circuit grows enormous operation
	// DDs; the engine-level deadline must abort from inside the
	// multiplication, not only between gates.
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(rng, 14, 400, false)
	eng := dd.New()
	start := time.Now()
	_, err := Run(c, Options{Strategy: CombineAll{}, Engine: eng, Deadline: time.Now().Add(150 * time.Millisecond)})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
	// The engine must stay usable after an abort.
	small := circuit.New(2)
	small.H(0).CX(0, 1)
	res, err := Run(small, Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.State.Norm()-1) > 1e-9 {
		t.Fatal("engine unusable after abort")
	}
}
