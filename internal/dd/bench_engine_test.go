package dd

import (
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

// BenchmarkMulVecDeadline is BenchmarkMulVec with a distant wall-clock
// deadline armed, so the abort probes run their unmasked path. The
// clock-read skip cache in abortCheck must keep the overhead small and
// the hot path at 0 allocs/op (CI greps the benchmark output for it).
func BenchmarkMulVecDeadline(b *testing.B) {
	e := New()
	e.SetDeadline(time.Now().Add(time.Hour))
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
// scaled by one of 64 relative phases in turn. Each phase is a distinct
// canonical ratio, so every sum misses the add cache at the top, and a
// collection after each round of 64 clears the cache and frees the
// results: every iteration walks both diagrams through the ratio-keyed
// recursion, interning weights and building nodes. One warm-up round
// fills the weight table and the arena first, after which CI greps the
// benchmark for 0 allocs/op.
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
