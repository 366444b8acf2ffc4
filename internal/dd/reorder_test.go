package dd

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// swapBits exchanges bits l and l+1 of index i — the dense reference
// for what one adjacent level swap does to basis indices.
func swapBits(i uint64, l int) uint64 {
	b0 := i >> uint(l) & 1
	b1 := i >> uint(l+1) & 1
	i &^= 3 << uint(l)
	return i | b0<<uint(l+1) | b1<<uint(l)
}

// Property: a random walk of adjacent level swaps over a random state
// preserves the circuit-indexed amplitudes (checked against the dense
// reference through the tracked order) and leaves the engine and the
// diagram Audit-clean after every single swap.
func TestReorderSwapVProperty(t *testing.T) {
	f := func(seed int64, nRaw, steps uint8) bool {
		e := New()
		n := int(nRaw)%5 + 2
		rng := rand.New(rand.NewSource(seed))
		want := randState(rng, n)
		v := e.FromVector(want)
		order := IdentityOrder(n)
		for s := 0; s < int(steps)%12+1; s++ {
			l := rng.Intn(n - 1)
			v = e.SwapAdjacentV(v, l)
			order[l], order[l+1] = order[l+1], order[l]
			if err := e.AuditV(v); err != nil {
				t.Logf("AuditV after swap %d at level %d: %v", s, l, err)
				return false
			}
			if err := e.Audit(); err != nil {
				t.Logf("Audit after swap %d: %v", s, err)
				return false
			}
			got := VectorInOrder(v, order)
			for i := range want {
				if cmplx.Abs(got[i]-want[i]) > 1e-8 {
					t.Logf("amp %d drifted after swap %d: got %v want %v", i, s, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Zero-heavy diagrams (basis states) exercise the vTerminal guards of
// the swap helpers: most child edges are zero edges whose node is the
// terminal.
func TestReorderSwapVBasisStates(t *testing.T) {
	e := New()
	n := 5
	for idx := uint64(0); idx < 1<<uint(n); idx += 3 {
		v := e.BasisState(n, idx)
		for l := 0; l < n-1; l++ {
			sw := e.SwapAdjacentV(v, l)
			if err := e.AuditV(sw); err != nil {
				t.Fatalf("AuditV(basis %d, swap %d): %v", idx, l, err)
			}
			if got, want := sw.Amplitude(swapBits(idx, l)), complex(1, 0); cmplx.Abs(got-want) > 1e-12 {
				t.Fatalf("basis %d swap %d: amplitude %v, want 1", idx, l, got)
			}
		}
	}
	// The all-zero edge is a no-op fixpoint.
	if sw := e.SwapAdjacentV(e.ZeroState(3), 1); sw.IsZero() {
		t.Fatalf("swap of |000> must stay non-zero")
	}
}

// Property: swapping a matrix DD permutes rows and columns by the same
// bit exchange, and the result is AuditM-clean.
func TestReorderSwapMProperty(t *testing.T) {
	f := func(seed int64, nRaw, lRaw uint8) bool {
		e := New()
		n := int(nRaw)%3 + 2
		l := int(lRaw) % (n - 1)
		m := gateFromSeed(e, seed, n)
		sw := e.SwapAdjacentM(m, l)
		if err := e.AuditM(sw); err != nil {
			t.Logf("AuditM: %v", err)
			return false
		}
		if err := e.Audit(); err != nil {
			t.Logf("Audit: %v", err)
			return false
		}
		orig, got := m.ToMatrix(), sw.ToMatrix()
		for r := range orig {
			for c := range orig[r] {
				pr, pc := swapBits(uint64(r), l), swapBits(uint64(c), l)
				if cmplx.Abs(got[pr][pc]-orig[r][c]) > 1e-8 {
					t.Logf("entry (%d,%d): got %v want %v", pr, pc, got[pr][pc], orig[r][c])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A swap is an involution: applying it twice returns the identical
// canonical edge (pointer equality included — hash-consing guarantees
// it when the function is truly unchanged).
func TestReorderSwapInvolution(t *testing.T) {
	e := New()
	v := stateFromSeed(e, 42, 6)
	for l := 0; l < 5; l++ {
		back := e.SwapAdjacentV(e.SwapAdjacentV(v, l), l)
		if back != v {
			t.Fatalf("double swap at level %d is not the identity edge", l)
		}
	}
	m := gateFromSeed(e, 7, 4)
	for l := 0; l < 3; l++ {
		back := e.SwapAdjacentM(e.SwapAdjacentM(m, l), l)
		if back != m {
			t.Fatalf("double matrix swap at level %d is not the identity edge", l)
		}
	}
}

// crossState prepares the cross-register entangler: Bell pairs between
// qubit i and i+n/2 under the identity order, which forces ~2^(n/2)
// nodes; an interleaved order collapses it to O(n).
func crossState(e *Engine, n int) VEdge {
	v := e.ZeroState(n)
	half := n / 2
	for i := 0; i < half; i++ {
		v = e.MulVec(e.GateDD(gH, n, i, nil), v)
		v = e.MulVec(e.GateDD(gX, n, i+half, []Control{Pos(i)}), v)
	}
	return v
}

// Sifting must find the interleaved order for the cross-register state
// (≥2x reduction; the true optimum is linear in n) while preserving
// amplitudes and audits.
func TestSiftVReducesCrossRegisterState(t *testing.T) {
	e := New()
	n := 12
	v := crossState(e, n)
	want := VectorInOrder(v, nil)
	order := IdentityOrder(n)
	before := e.SizeV(v)
	sifted, res := e.SiftV(v, order, 0)
	if res.Before != before {
		t.Fatalf("SiftResult.Before = %d, want %d", res.Before, before)
	}
	if res.After != e.SizeV(sifted) {
		t.Fatalf("SiftResult.After = %d, actual size %d", res.After, e.SizeV(sifted))
	}
	if res.After*2 > before {
		t.Fatalf("sifting reduced %d -> %d nodes; want at least 2x", before, res.After)
	}
	if !IsPermutation(order) {
		t.Fatalf("sifting left a non-permutation order %v", order)
	}
	if err := e.AuditV(sifted); err != nil {
		t.Fatalf("AuditV after sifting: %v", err)
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("Audit after sifting: %v", err)
	}
	got := VectorInOrder(sifted, order)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("amplitude %d: got %v want %v", i, got[i], want[i])
		}
	}
	if st := e.Stats(); st.ReorderSwaps == 0 || st.SiftPasses == 0 {
		t.Fatalf("stats not updated: %+v", st)
	}
}

// The swap budget is a hard cap up to the documented restore overshoot
// (≤ one walk across the levels).
func TestSiftVBudget(t *testing.T) {
	e := New()
	n := 10
	v := crossState(e, n)
	order := IdentityOrder(n)
	_, res := e.SiftV(v, order, 5)
	if res.Swaps > 5+n {
		t.Fatalf("budget 5 overshot to %d swaps (limit %d)", res.Swaps, 5+n)
	}
	if !IsPermutation(order) {
		t.Fatalf("budgeted sift left non-permutation order %v", order)
	}
}

// An injected abort inside sifting must surface as the usual
// *AbortError panic from the swap probe, with the diagram it was
// handed still intact. Chaos-gated: skipped unless fault injection is
// compiled/opted in.
func TestSiftAbortInjection(t *testing.T) {
	e := New()
	n := 10
	v := crossState(e, n)
	if !e.InjectAbortAfter(3, AbortInjected) {
		t.Skip("fault injection disabled (build without ddchaos and DD_CHAOS unset)")
	}
	order := IdentityOrder(n)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("sift with injected abort did not panic")
			}
			var ae *AbortError
			if err, ok := r.(error); !ok || !errors.As(err, &ae) {
				t.Fatalf("panic value %v is not an *AbortError", r)
			}
		}()
		e.SiftV(v, order, 0)
	}()
	// The input diagram must still audit clean after the aborted sift.
	if err := e.AuditV(v); err != nil {
		t.Fatalf("AuditV on input after aborted sift: %v", err)
	}
}

func TestReorderIndexMaps(t *testing.T) {
	order := []int{2, 0, 3, 1}
	if !IsPermutation(order) {
		t.Fatalf("IsPermutation rejected %v", order)
	}
	for _, bad := range [][]int{{0, 0, 1}, {1, 2, 3}, {-1, 0, 1}} {
		if IsPermutation(bad) {
			t.Fatalf("IsPermutation accepted %v", bad)
		}
	}
	for i := uint64(0); i < 16; i++ {
		if got := IndexFromDD(order, IndexToDD(order, i)); got != i {
			t.Fatalf("round trip %d -> %d", i, got)
		}
	}
	// Identity (nil) order is the identity map.
	if IndexToDD(nil, 13) != 13 || IndexFromDD(nil, 13) != 13 {
		t.Fatalf("nil order must be identity")
	}
}

// The per-level unique-table index must agree with a full recount
// after interning and GC.
func TestLevelIndexTracksInsertAndSweep(t *testing.T) {
	e := New()
	v := crossState(e, 8)
	check := func(when string) {
		for l := 0; l < 8; l++ {
			want := 0
			for _, n := range e.liveVNodes() {
				if int(n.V) == l {
					want++
				}
			}
			if got := e.VLevelCount(l); got != want {
				t.Fatalf("%s: VLevelCount(%d) = %d, recount %d", when, l, got, want)
			}
		}
	}
	check("after build")
	e.GarbageCollect([]VEdge{v}, nil)
	check("after GC")
	if e.VLevelCount(-1) != 0 || e.VLevelCount(1000) != 0 {
		t.Fatalf("out-of-range level counts must be zero")
	}
}

func BenchmarkSwapAdjacentV(b *testing.B) {
	e := New()
	v := crossState(e, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = e.SwapAdjacentV(v, i%15)
	}
}
