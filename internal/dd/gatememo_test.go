package dd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cnum"
)

// The gate memo must be invisible: every GateDD result equals what the
// direct construction builds on the same engine at the same moment —
// the same node, the same weight bits — and that rebuild creates no
// node. The tests below compare GateDD with buildUncached, which runs
// the same validation and construction without touching the memo.

func buildUncached(e *Engine, u [2][2]complex128, n, target int, controls []Control) MEdge {
	e.loadControls(n, target, controls)
	return e.buildGate(u, n, target)
}

// checkGate calls GateDD and requires the result to match a rebuild
// bit for bit, with the rebuild creating no node. It reports whether
// the call was answered by the memo.
func checkGate(t *testing.T, e *Engine, u [2][2]complex128, n, target int, controls []Control) (MEdge, bool) {
	t.Helper()
	hits := e.stats.GateHits
	got := e.GateDD(u, n, target, controls)
	hits2 := e.stats.GateHits
	created := e.stats.NodesCreated
	want := buildUncached(e, u, n, target, controls)
	if got.N != want.N {
		t.Fatalf("GateDD(%v, n=%d, t=%d, %v): node %p, rebuild %p", u, n, target, controls, got.N, want.N)
	}
	if !sameBits(got.W, want.W) {
		t.Fatalf("GateDD(%v, n=%d, t=%d, %v): weight %v, rebuild %v (bits differ)", u, n, target, controls, got.W, want.W)
	}
	if e.stats.NodesCreated != created {
		t.Fatalf("GateDD(%v, n=%d, t=%d, %v): rebuild created %d nodes", u, n, target, controls, e.stats.NodesCreated-created)
	}
	return got, hits2 > hits
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// randControls draws a mixed set of positive and negative controls
// avoiding target.
func randControls(rng *rand.Rand, n, target int) []Control {
	var cs []Control
	for q := 0; q < n; q++ {
		if q != target && rng.Intn(3) == 0 {
			cs = append(cs, Control{Qubit: q, Negative: rng.Intn(2) == 0})
		}
	}
	return cs
}

// withSignedZeros replaces random components of u by +0 or −0, so the
// memo sees gates that are equal under == but differ in their bits.
func withSignedZeros(rng *rand.Rand, u [2][2]complex128) [2][2]complex128 {
	zero := func() float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	for r := range u {
		for c := range u[r] {
			switch rng.Intn(4) {
			case 0:
				u[r][c] = complex(real(u[r][c]), zero())
			case 1:
				u[r][c] = complex(zero(), imag(u[r][c]))
			}
		}
	}
	return u
}

func TestGateMemoMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	e := New()
	pool := [][2][2]complex128{gX, gH, gZ, gT}
	for i := 0; i < 8; i++ {
		pool = append(pool, randUnitary(rng))
	}
	for i := 0; i < 4; i++ {
		pool = append(pool, withSignedZeros(rng, randUnitary(rng)))
	}
	negOne := math.Copysign(0, -1)
	pool = append(pool,
		[2][2]complex128{{0, complex(1, negOne)}, {complex(1, negOne), 0}},
		[2][2]complex128{{complex(negOne, negOne), 1}, {1, complex(0, negOne)}},
		[2][2]complex128{{complex(1, negOne), 0}, {0, complex(negOne, 1)}},
	)
	hits := 0
	for n := 1; n <= 24; n++ {
		for target := 0; target < n; target++ {
			// Each gate twice: the second call must come from the memo.
			u := pool[rng.Intn(len(pool))]
			cs := randControls(rng, n, target)
			checkGate(t, e, u, n, target, cs)
			if _, hit := checkGate(t, e, u, n, target, cs); hit {
				hits++
			}
			// The same qubits with every polarity flipped is another gate.
			flipped := append([]Control(nil), cs...)
			for i := range flipped {
				flipped[i].Negative = !flipped[i].Negative
			}
			checkGate(t, e, u, n, target, flipped)
		}
	}
	if hits == 0 {
		t.Fatal("no repeated gate was answered by the memo")
	}
	t.Logf("%d of %d repeated gates answered by the memo", hits, 24*25/2)
}

// TestGateMemoSignedZero pins the case that keys the memo on bits: an
// exact 1 keeps the sign of its imaginary zero through Lookup and
// becomes the gate's top weight, so X with (1, −0) entries and X with
// (1, +0) entries build different weight bits.
func TestGateMemoSignedZero(t *testing.T) {
	e := New()
	one := complex(1, math.Copysign(0, -1))
	xNeg := [2][2]complex128{{0, one}, {one, 0}}
	a, _ := checkGate(t, e, xNeg, 3, 1, nil)
	b, _ := checkGate(t, e, gX, 3, 1, nil)
	if sameBits(a.W, b.W) {
		t.Fatal("expected the two X gates to differ in their top weight bits")
	}
	checkGate(t, e, xNeg, 3, 1, nil)
	checkGate(t, e, gX, 3, 1, nil)
}

func TestGateMemoWideRegisterBypasses(t *testing.T) {
	e := New()
	for _, target := range []int{0, 40, 64} {
		cs := []Control{Pos(1), Neg(63), Pos(64)}
		if target == 64 {
			cs = []Control{Neg(2), Pos(63)}
		}
		lookups := e.stats.GateLookups
		checkGate(t, e, gH, 65, target, cs)
		checkGate(t, e, gH, 65, target, cs)
		if l := e.stats.GateLookups; l != lookups {
			t.Fatalf("n = 65 probed the memo (%d lookups)", l-lookups)
		}
	}
	// n = 64 still fits the masks.
	checkGate(t, e, gH, 64, 63, []Control{Neg(0)})
	if _, hit := checkGate(t, e, gH, 64, 63, []Control{Neg(0)}); !hit {
		t.Fatal("n = 64 gate not memoised")
	}
}

// TestGateMemoExpires interleaves gate builds with mat-vec products,
// collections and an injected abort: every collection and abort must
// expire the memo, and every result must still match a rebuild.
func TestGateMemoExpires(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	const n = 8
	rng := rand.New(rand.NewSource(5))
	e := New()
	type gate struct {
		u      [2][2]complex128
		target int
		cs     []Control
	}
	pool := make([]gate, 6)
	for i := range pool {
		tg := rng.Intn(n)
		pool[i] = gate{randUnitary(rng), tg, randControls(rng, n, tg)}
	}
	v := e.ZeroState(n)
	expired := func(what string) {
		t.Helper()
		for _, g := range pool {
			if _, hit := checkGate(t, e, g.u, n, g.target, g.cs); hit {
				t.Fatalf("memo answered a gate after %s", what)
			}
		}
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			g := pool[rng.Intn(len(pool))]
			m, _ := checkGate(t, e, g.u, n, g.target, g.cs)
			v = e.MulVec(m, v)
		}
		if round%2 == 0 {
			e.GarbageCollect([]VEdge{v}, nil)
			expired("a collection")
		} else {
			m, _ := checkGate(t, e, pool[0].u, n, pool[0].target, pool[0].cs)
			if !e.InjectAbortAfter(1, AbortBudget) {
				t.Fatal("abort injection did not arm")
			}
			if recoverAbort(func() { e.MulVec(m, e.BasisState(n, uint64(round))) }) == nil {
				t.Fatal("expected an abort")
			}
			expired("an abort")
		}
		if err := e.Audit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AuditV(v); err != nil {
		t.Fatal(err)
	}
}

// TestGateMemoSkipsForeignLookups crafts representatives within Tol of,
// but not equal to, a value the build looks up — once an entry, once a
// normalisation quotient. A later insert could change what such a
// lookup returns, so the gate must not be memoised.
func TestGateMemoSkipsForeignLookups(t *testing.T) {
	t.Run("entry", func(t *testing.T) {
		e := New()
		u := randUnitary(rand.New(rand.NewSource(3)))
		e.Weight(u[0][1] + complex(0.6*cnum.Tol, 0))
		checkGate(t, e, u, 5, 2, []Control{Neg(0)})
		if _, hit := checkGate(t, e, u, 5, 2, []Control{Neg(0)}); hit {
			t.Fatal("gate with a foreign entry lookup was memoised")
		}
	})
	t.Run("quotient", func(t *testing.T) {
		e := New()
		u := [2][2]complex128{{0.8, 0}, {0, 0.3}}
		e.Weight(u[1][1]/u[0][0] + complex(0.6*cnum.Tol, 0))
		checkGate(t, e, u, 5, 2, []Control{Pos(4)})
		if _, hit := checkGate(t, e, u, 5, 2, []Control{Pos(4)}); hit {
			t.Fatal("gate with a foreign quotient lookup was memoised")
		}
	})
	t.Run("control", func(t *testing.T) {
		// The same gates without crafted representatives are memoised.
		e := New()
		u := randUnitary(rand.New(rand.NewSource(3)))
		checkGate(t, e, u, 5, 2, []Control{Neg(0)})
		if _, hit := checkGate(t, e, u, 5, 2, []Control{Neg(0)}); !hit {
			t.Fatal("gate not memoised")
		}
		d := [2][2]complex128{{0.8, 0}, {0, 0.3}}
		checkGate(t, e, d, 5, 2, []Control{Pos(4)})
		if _, hit := checkGate(t, e, d, 5, 2, []Control{Pos(4)}); !hit {
			t.Fatal("diagonal gate not memoised")
		}
	})
}

// TestGateMemoValidatesOnHit checks that an invalid gate panics even
// when a valid gate with the same memo key — the same masks — is
// memoised.
func TestGateMemoValidatesOnHit(t *testing.T) {
	e := New()
	e.GateDD(gX, 4, 1, []Control{Pos(2), Neg(3)})
	e.GateDD(gX, 4, 1, []Control{Pos(2), Neg(3)})
	if hits := e.stats.GateHits; hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	for name, cs := range map[string][]Control{
		"duplicate":       {Pos(2), Pos(2), Neg(3)},
		"duplicate mixed": {Pos(2), Neg(3), Neg(3)},
		"control range":   {Pos(2), Neg(3), Pos(66)},
		"target control":  {Pos(2), Neg(3), Pos(1)},
		"control below 0": {Pos(2), Neg(3), Neg(-1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			e.GateDD(gX, 4, 1, cs)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("target out of range: no panic")
			}
		}()
		e.GateDD(gX, 4, 4, nil)
	}()
}

// TestGateMemoBitFlipReusedUntilGC documents the chaos exception: a bit
// flip in a memoised gate DD is handed out again until the memo
// expires, where a rebuild would have re-interned a clean node. The
// flip stays visible to Audit throughout, and a collection drops it.
func TestGateMemoBitFlipReusedUntilGC(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	e := New()
	if !e.InjectBitFlipAfter(1, FaultWeightFlip) {
		t.Skip("fault injection did not arm (chaos disabled)")
	}
	g := e.GateDD(gH, 6, 2, []Control{Pos(4)})
	if e.stats.FaultsInjected != 1 {
		t.Fatalf("faults injected %d, want 1", e.stats.FaultsInjected)
	}
	if err := e.Audit(); err == nil {
		t.Fatal("audit missed the flipped node")
	}
	if again := e.GateDD(gH, 6, 2, []Control{Pos(4)}); again != g {
		t.Fatal("memo did not hand out the memoised (flipped) gate")
	}
	e.GarbageCollect(nil, nil)
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after collection: %v", err)
	}
	clean := e.GateDD(gH, 6, 2, []Control{Pos(4)})
	if err := e.AuditM(clean); err != nil {
		t.Fatalf("gate rebuilt after collection: %v", err)
	}
	ref := New()
	approxMat(t, clean.ToMatrix(), ref.GateDD(gH, 6, 2, []Control{Pos(4)}).ToMatrix(), "rebuilt gate")
}
