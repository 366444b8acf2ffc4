package dd

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"
)

// The engine microbenchmarks below exercise the memory layer on paths
// that miss the compute caches, so node creation, unique-table probing
// and garbage collection dominate — unlike the cache-hit loops in
// dd_test.go, which measure pure lookup throughput.

// BenchmarkMakeNode drives makeVNode through BasisState with a rolling
// index: a mix of unique-table misses (fresh nodes) and hits (shared
// suffixes), with periodic full collections to keep the table bounded.
func BenchmarkMakeNode(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.BasisState(20, uint64(i)&((1<<20)-1))
		if i&8191 == 8191 {
			e.GarbageCollect(nil, nil)
		}
	}
}

// BenchmarkNewEngine measures engine construction. The compute caches,
// query memos and gate memo are allocated on their first probe, so New
// pays only for the two empty unique tables; CI fails the build if it
// reports 65,536 B/op or more.
func BenchmarkNewEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newEngineSink = New()
	}
}

// newEngineSink keeps BenchmarkNewEngine's engines on the heap, as a
// simulation's are.
var newEngineSink *Engine

// BenchmarkMulVec applies a rotating set of random controlled gates to
// an evolving 12-qubit state. Every application misses the compute
// caches and builds fresh result nodes, so this measures the full hot
// path the paper's strategies bottom out in: recursion + add + node
// creation + unique-table insertion, with GC when the engine fills up.
func BenchmarkMulVec(b *testing.B) {
	e := New()
	const n = 12
	rng := rand.New(rand.NewSource(42))
	gates := make([]MEdge, 64)
	for i := range gates {
		tgt := rng.Intn(n)
		var controls []Control
		if c := rng.Intn(n); c != tgt {
			controls = append(controls, Control{Qubit: c, Negative: rng.Intn(2) == 0})
		}
		gates[i] = e.GateDD(randUnitary(rng), n, tgt, controls)
	}
	v := e.ZeroState(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = e.MulVec(gates[i&63], v)
		if e.VNodeCount()+e.MNodeCount() > 150_000 {
			e.GarbageCollect([]VEdge{v}, gates)
		}
	}
}

// BenchmarkGC measures a full churn cycle: build ~20k garbage nodes
// from pregenerated amplitude vectors, then collect them while keeping
// one live state. (Build stays inside the timed section — per-iteration
// StopTimer calls runtime.ReadMemStats and would dominate wall-clock —
// so the numbers cover allocation and collection of the same nodes,
// which is exactly the churn GC exists to absorb.)
func BenchmarkGC(b *testing.B) {
	e := New()
	rng := rand.New(rand.NewSource(7))
	states := make([][]complex128, 20)
	for i := range states {
		states[i] = randState(rng, 10)
	}
	live := e.FromVector(randState(rng, 10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range states {
			e.FromVector(s)
		}
		e.GarbageCollect([]VEdge{live}, nil)
	}
}

// BenchmarkMulVecContext is BenchmarkMulVec with a cancellable context
// armed under a distant deadline, so every abort probe counts and every
// 256th polls the context. The armed probe must keep the hot path at 0
// allocs/op (CI greps the benchmark output for it).
func BenchmarkMulVecContext(b *testing.B) {
	e := New()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	e.SetContext(ctx)
	const n = 12
	rng := rand.New(rand.NewSource(42))
	gates := make([]MEdge, 64)
	for i := range gates {
		tgt := rng.Intn(n)
		var controls []Control
		if c := rng.Intn(n); c != tgt {
			controls = append(controls, Control{Qubit: c, Negative: rng.Intn(2) == 0})
		}
		gates[i] = e.GateDD(randUnitary(rng), n, tgt, controls)
	}
	v := e.ZeroState(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = e.MulVec(gates[i&63], v)
		if e.VNodeCount()+e.MNodeCount() > 150_000 {
			e.GarbageCollect([]VEdge{v}, gates)
		}
	}
}

// BenchmarkMulVecGate applies rotating single-qubit gates to a wide
// evolving state — the gate-padding case the identity-aware kernels
// target: everything below the target level is identity structure the
// recursion must absorb in O(1) instead of walking. CI greps this
// benchmark for 0 allocs/op alongside BenchmarkMulVec, so the identity
// short-circuit cannot regress the hot path's allocation-free property.
func BenchmarkMulVecGate(b *testing.B) {
	e := New()
	const n = 20
	rng := rand.New(rand.NewSource(42))
	gates := make([]MEdge, 64)
	for i := range gates {
		gates[i] = e.GateDD(randUnitary(rng), n, rng.Intn(n), nil)
	}
	v := e.ZeroState(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = e.MulVec(gates[i&63], v)
		if e.VNodeCount()+e.MNodeCount() > 150_000 {
			e.GarbageCollect([]VEdge{v}, gates)
		}
	}
}

// BenchmarkAddV sums two distinct 10-qubit random states, the second
// scaled by one of 64 relative phases in turn. Each phase is a ratio in
// its own quantisation cell, so every sum misses the add cache at the
// top, and a collection after each round of 64 clears the cache and
// frees the results: every iteration walks both diagrams through the
// ratio-keyed recursion, interning weights and building nodes. One
// warm-up round fills the weight table and the arena first, after which
// CI greps the benchmark for 0 allocs/op.
func BenchmarkAddV(b *testing.B) {
	e := New()
	rng := rand.New(rand.NewSource(3))
	x := e.FromVector(randState(rng, 10))
	y := e.FromVector(randState(rng, 10))
	ys := make([]VEdge, 64)
	for i := range ys {
		ys[i] = e.ScaleV(y, cmplx.Rect(1, 2*math.Pi*float64(i)/float64(len(ys))))
	}
	roots := append([]VEdge{x}, ys...)
	round := func(i int) {
		e.Add(x, ys[i&63])
		if i&63 == 63 {
			e.GarbageCollect(roots, nil)
		}
	}
	for i := 0; i < 64; i++ {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}

// tfimStep builds one first-order Trotter step of the transverse-field
// Ising chain on n sites (J = 1, h = 0.9, δ = 1/28): per bond CX·RZ·CX,
// then RX on every site, combined into one operator with MulMat.
func tfimStep(e *Engine, n int) MEdge {
	const j, h, delta = 1.0, 0.9, 1.0 / 28
	x := [2][2]complex128{{0, 1}, {1, 0}}
	rz := func(th float64) [2][2]complex128 {
		return [2][2]complex128{{cmplx.Exp(complex(0, -th/2)), 0}, {0, cmplx.Exp(complex(0, th/2))}}
	}
	rx := func(th float64) [2][2]complex128 {
		c, s := complex(math.Cos(th/2), 0), complex(0, -math.Sin(th/2))
		return [2][2]complex128{{c, s}, {s, c}}
	}
	step := e.Identity(n)
	apply := func(g MEdge) { step = e.MulMat(g, step) }
	for q := 0; q+1 < n; q++ {
		cx := e.GateDD(x, n, q+1, []Control{Pos(q)})
		apply(cx)
		apply(e.GateDD(rz(-2*j*delta), n, q+1, nil))
		apply(cx)
	}
	for q := 0; q < n; q++ {
		apply(e.GateDD(rx(-2*h*delta), n, q, nil))
	}
	return step
}

// BenchmarkMulVecDense applies one TFIM-10 Trotter-step matrix to dense
// random 10-qubit states — the mat-vec path of the Trotter chain, where
// every product, sum and scaled edge carries a fresh weight. Each round
// multiplies eight states and then collects, clearing the caches, so
// every iteration runs the full recursion; one warm-up round fills the
// weight table and the arena, after which CI greps the benchmark for
// 0 allocs/op.
func BenchmarkMulVecDense(b *testing.B) {
	e := New()
	const n = 10
	step := tfimStep(e, n)
	rng := rand.New(rand.NewSource(5))
	states := make([]VEdge, 8)
	for i := range states {
		states[i] = e.FromVector(randState(rng, n))
	}
	round := func(i int) {
		e.MulVec(step, states[i&7])
		if i&7 == 7 {
			e.GarbageCollect(states, []MEdge{step})
		}
	}
	for i := 0; i < 8; i++ {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}
