package dd

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// recoverAbort runs f and returns the recovered *AbortError (nil when f
// completed without aborting).
func recoverAbort(f func()) (a *AbortError) {
	defer func() {
		if rec := recover(); rec != nil {
			var ok bool
			if a, ok = AsAbort(rec); !ok {
				panic(rec)
			}
		}
	}()
	f()
	return nil
}

// bigPair builds two dense random states large enough that a single
// Add walks well past the sampled probe interval.
func bigPair(e *Engine, seed int64) (VEdge, VEdge) {
	rng := rand.New(rand.NewSource(seed))
	return e.FromVector(randState(rng, 10)), e.FromVector(randState(rng, 10))
}

func TestBudgetAborts(t *testing.T) {
	e := New()
	a, b := bigPair(e, 1)
	// The states alone exceed the budget; the first sampled probe inside
	// the addition must fire.
	e.SetBudget(10)
	ab := recoverAbort(func() { e.Add(a, b) })
	if ab == nil {
		t.Fatal("addition under a 10-node budget did not abort")
	}
	if ab.Reason != AbortBudget || !errors.Is(ab, ErrBudgetExceeded) {
		t.Fatalf("abort = %v, want budget", ab)
	}
	if ab.Reason == AbortDeadline {
		t.Fatal("budget abort misclassified as deadline")
	}
	if e.Stats().Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", e.Stats().Aborts)
	}
	// Disarm and re-run: the engine must be fully usable.
	e.SetBudget(0)
	sum := e.Add(a, b)
	if got, want := sum.ToVector(), a.ToVector(); len(got) != len(want) {
		t.Fatal("post-abort addition broken")
	}
}

func TestContextCancelAborts(t *testing.T) {
	e := New()
	a, b := bigPair(e, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)
	ab := recoverAbort(func() { e.Add(a, b) })
	if ab == nil {
		t.Fatal("addition under a canceled context did not abort")
	}
	if ab.Reason != AbortCanceled || !errors.Is(ab, context.Canceled) {
		t.Fatalf("abort = %v, want canceled wrapping context.Canceled", ab)
	}
	e.SetContext(nil)
	if got := recoverAbort(func() { e.Add(a, b) }); got != nil {
		t.Fatalf("disarmed engine still aborted: %v", got)
	}
}

func TestBackgroundContextIgnored(t *testing.T) {
	e := New()
	e.SetContext(context.Background())
	if e.armed {
		t.Fatal("un-cancellable context armed the probe path")
	}
}

// TestDeadlineAbortStillClassified: a context that passed its deadline
// aborts with AbortDeadline, not AbortCanceled, and carries
// context.DeadlineExceeded.
func TestDeadlineAbortStillClassified(t *testing.T) {
	e := New()
	a, b := bigPair(e, 3)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	e.SetContext(ctx)
	ab := recoverAbort(func() { e.Add(a, b) })
	if ab == nil {
		t.Fatal("expired deadline did not abort")
	}
	if ab.Reason != AbortDeadline || !errors.Is(ab, context.DeadlineExceeded) {
		t.Fatalf("abort = %v, want deadline wrapping context.DeadlineExceeded", ab)
	}
	e.SetContext(nil)
}

func TestInjectRequiresChaosGate(t *testing.T) {
	t.Setenv("DD_CHAOS", "")
	if chaosBuild {
		t.Skip("built with ddchaos: injection is always armed")
	}
	e := New()
	if e.InjectAbortAfter(1, AbortInjected) {
		t.Fatal("fault injection armed without the chaos gate")
	}
	a, b := bigPair(e, 4)
	if ab := recoverAbort(func() { e.Add(a, b) }); ab != nil {
		t.Fatalf("unexpected abort: %v", ab)
	}
}

func TestInjectFiresExactlyAndDisarms(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	e := New()
	a, b := bigPair(e, 5)
	if !e.InjectAbortAfter(7, AbortInjected) {
		t.Fatal("fault injection did not arm under DD_CHAOS=1")
	}
	ab := recoverAbort(func() { e.Add(a, b) })
	if ab == nil {
		t.Fatal("injection did not fire")
	}
	if ab.Reason != AbortInjected || !errors.Is(ab, ErrInjectedAbort) {
		t.Fatalf("abort = %v, want injected", ab)
	}
	if ab.Probes != 7 {
		t.Fatalf("fired at probe %d, want exactly 7", ab.Probes)
	}
	// One-shot: the retry must complete.
	if again := recoverAbort(func() { e.Add(a, b) }); again != nil {
		t.Fatalf("injection fired twice: %v", again)
	}
}

// TestInjectedReasonsCarrySentinels checks that rehearsed deadline /
// budget / cancellation aborts surface the same sentinel errors as the
// real thing, so recovery code paths can be chaos-tested end to end.
func TestInjectedReasonsCarrySentinels(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	cases := []struct {
		reason AbortReason
		want   error
	}{
		{AbortDeadline, context.DeadlineExceeded},
		{AbortBudget, ErrBudgetExceeded},
		{AbortCanceled, context.Canceled},
		{AbortInjected, ErrInjectedAbort},
	}
	for _, tc := range cases {
		e := New()
		a, b := bigPair(e, 6)
		if !e.InjectAbortAfter(3, tc.reason) {
			t.Fatal("injection did not arm")
		}
		ab := recoverAbort(func() { e.Add(a, b) })
		if ab == nil || ab.Reason != tc.reason || !errors.Is(ab, tc.want) {
			t.Fatalf("reason %v: abort = %v, want %v", tc.reason, ab, tc.want)
		}
	}
}

// TestAbortInvalidatesCaches checks the post-abort invariant that no
// compute-cache entry from the aborted operation survives (generation
// bump on the abort path).
func TestAbortInvalidatesCaches(t *testing.T) {
	e := New()
	a, b := bigPair(e, 7)
	gen := e.cacheGen
	e.SetBudget(10)
	if recoverAbort(func() { e.Add(a, b) }) == nil {
		t.Fatal("expected abort")
	}
	if e.cacheGen == gen {
		t.Fatal("abort did not invalidate the compute caches")
	}
}

// TestAbortMidMulLeavesEngineReusable aborts a matrix-matrix product in
// flight and checks that a later identical product on the same engine
// matches one from a fresh engine.
func TestAbortMidMulLeavesEngineReusable(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	build := func(e *Engine) (MEdge, MEdge) {
		g1 := gateFromSeed(e, 21, 8)
		g2 := gateFromSeed(e, 22, 8)
		return g1, g2
	}
	ref := New()
	rg1, rg2 := build(ref)
	want := ref.MulMat(rg1, rg2)

	e := New()
	g1, g2 := build(e)
	if !e.InjectAbortAfter(5, AbortBudget) {
		t.Fatal("injection did not arm")
	}
	if recoverAbort(func() { e.MulMat(g1, g2) }) == nil {
		t.Fatal("expected abort")
	}
	got := e.MulMat(g1, g2)
	wm, gm := want.ToMatrix(), got.ToMatrix()
	for i := range wm {
		for j := range wm[i] {
			if d := wm[i][j] - gm[i][j]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				t.Fatalf("post-abort product differs at (%d,%d)", i, j)
			}
		}
	}
}
