package dd

import (
	"context"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// Tests for the identity-aware multiplication kernels: the isIdentity
// bit stamped by makeMNode, the short-circuits in mulVec/mulMat, the
// memoised ConjTranspose, the kron abort probes, and the audit check
// that guards the derived bit.

// TestIdentityBitStamping checks the bit on the structures it must and
// must not mark: identity diagrams at every level, the identity padding
// below a gate's target, and nothing else.
func TestIdentityBitStamping(t *testing.T) {
	e := New()
	id := e.Identity(6)
	for n := id.N; n != mTerminal; n = n.E[0].N {
		if !n.isIdentity {
			t.Fatalf("identity node at level %d not stamped", n.V)
		}
	}
	if !id.IsIdentity() || !MOne().IsIdentity() {
		t.Fatal("IsIdentity helper rejects identity edges")
	}
	// A scaled identity is still an edge into an identity node.
	if !e.ScaleM(id, complex(0.5, 0.25)).IsIdentity() {
		t.Fatal("scaling must not clear the node's identity structure")
	}

	// Gate on the top qubit: the root is the gate, everything below the
	// target is identity padding.
	g := e.GateDD(gH, 6, 5, nil)
	if g.N.isIdentity {
		t.Fatal("H gate root stamped as identity")
	}
	for i := 0; i < 4; i++ {
		if !g.N.E[i].IsZero() && !g.N.E[i].IsIdentity() {
			t.Fatalf("gate padding quadrant %d not identity", i)
		}
	}
	// Gate on the bottom qubit: the doubling nodes above the target are
	// diagonal but not identity (their diagonal blocks hold the gate).
	g = e.GateDD(gH, 6, 0, nil)
	if g.N.isIdentity {
		t.Fatal("doubling node above an H target stamped as identity")
	}
	// A controlled gate is not identity either, and neither is a
	// diagonal-but-unequal-weights node like T's padding root.
	if cx := e.GateDD(gX, 4, 1, []Control{{Qubit: 3}}); cx.N.isIdentity {
		t.Fatal("controlled-X root stamped as identity")
	}
	if tt := e.GateDD(gT, 4, 2, nil); tt.N.isIdentity {
		t.Fatal("T gate root stamped as identity")
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after stamping checks: %v", err)
	}
}

// TestQuickIdentitySkipPointerIdentical is the central soundness
// property of the short-circuits: on the SAME engine, random gate
// chains produce pointer- and weight-identical edges with skipping on
// and off, for both the mat-vec and mat-mat kernels. (Hash-consing
// makes structural equality pointer equality, so == on edges is the
// strongest possible check.)
func TestQuickIdentitySkipPointerIdentical(t *testing.T) {
	e := New()
	defer e.SetIdentitySkip(true)
	f := func(s1, s2, s3, s4 int64, nRaw uint8) bool {
		n := int(nRaw)%4 + 2
		v0 := stateFromSeed(e, s1, n)
		gs := []MEdge{gateFromSeed(e, s2, n), gateFromSeed(e, s3, n), gateFromSeed(e, s4, n)}

		e.SetIdentitySkip(false)
		vOff, mOff := v0, e.Identity(n)
		for _, g := range gs {
			vOff = e.MulVec(g, vOff)
			mOff = e.MulMat(g, mOff)
		}
		e.SetIdentitySkip(true)
		e.clearCaches() // force the on run to recompute, not replay cached results
		vOn, mOn := v0, e.Identity(n)
		for _, g := range gs {
			vOn = e.MulVec(g, vOn)
			mOn = e.MulMat(g, mOn)
		}
		return vOn == vOff && mOn == mOff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after property run: %v", err)
	}
}

// TestIdentitySkipRecursionGuard is the CI regression guard: a
// single-qubit gate on a wide product state must stop recursing at the
// identity padding. With skipping on, the kernel touches a handful of
// levels; without, it walks the full diagram. A code change that breaks
// the short-circuit (or the stamping feeding it) trips the constant
// below long before it shows up in benchmarks.
func TestIdentitySkipRecursionGuard(t *testing.T) {
	const n = 24
	e := New()
	v := e.ZeroState(n)
	g := e.GateDD(gH, n, n-1, nil) // top-qubit gate: n-1 identity levels below

	before := e.Stats()
	von := e.MulVec(g, v)
	d := e.Stats()
	onRec := d.MulRecursions - before.MulRecursions
	if d.IdentitySkipsMV == before.IdentitySkipsMV {
		t.Fatal("identity short-circuit never fired on a top-qubit gate")
	}
	if onRec > 8 {
		t.Fatalf("MulRecursions with skipping = %d, want <= 8 (identity padding not skipped)", onRec)
	}

	e.SetIdentitySkip(false)
	defer e.SetIdentitySkip(true)
	e.clearCaches() // the off run must not reuse results cached by the on run
	before = e.Stats()
	voff := e.MulVec(g, v)
	offRec := e.Stats().MulRecursions - before.MulRecursions
	if offRec < n {
		t.Fatalf("MulRecursions without skipping = %d, want >= %d (guard is not measuring the full walk)", offRec, n)
	}
	if von != voff {
		t.Fatal("skip on/off disagree on the result edge")
	}
	t.Logf("MulRecursions: %d with skipping, %d without", onRec, offRec)
}

// TestConjTransposeSharedDiagramLinear is the regression test for the
// memoised adjoint: a depth-40 chain in which every node points to the
// same child four times (with distinct weights) has 4^40 paths — the
// pre-memo recursion would never return. The probe counter bounds the
// actual number of conjT invocations, so the test fails fast (rather
// than hanging) if the memo is dropped.
func TestConjTransposeSharedDiagramLinear(t *testing.T) {
	e := New()
	const depth = 40
	m := MOne()
	for v := int32(0); v < depth; v++ {
		m = e.makeMNode(v, [4]MEdge{
			m,
			e.scaleM(m, complex(0.5, 0)),
			e.scaleM(m, complex(0, 0.5)),
			e.scaleM(m, complex(-0.5, 0)),
		})
	}

	// Arm a cancellable (but never canceled) context so abort probes
	// count; every conjT call probes exactly once.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetContext(ctx)
	defer e.SetContext(nil)
	p0 := e.Probes()
	ct := e.ConjTranspose(m)
	probes := e.Probes() - p0
	if probes > 20*depth {
		t.Fatalf("ConjTranspose probed %d times on a depth-%d shared chain, want O(depth) — memo broken", probes, depth)
	}
	// The adjoint is an involution; on a hash-consed engine that means
	// edge equality, not approximation.
	if back := e.ConjTranspose(ct); back != m {
		t.Fatalf("ConjTranspose not an involution: got %v, want %v", back, m)
	}
	t.Logf("probes = %d for depth %d", probes, depth)
}

// TestConjTransposeMatchesMatrix pins the element-level semantics of
// the restructured adjoint against the explicit matrix.
func TestConjTransposeMatchesMatrix(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 1 + rng.Intn(3)
		g := gateFromSeed(e, rng.Int63(), n)
		got := e.ConjTranspose(g).ToMatrix()
		want := g.ToMatrix()
		for r := range want {
			for c := range want[r] {
				if cmplx.Abs(got[r][c]-cmplx.Conj(want[c][r])) > 1e-12 {
					t.Fatalf("trial %d: adjoint[%d][%d] = %v, want conj(m[%d][%d]) = %v",
						trial, r, c, got[r][c], c, r, cmplx.Conj(want[c][r]))
				}
			}
		}
		// I† = I must hold exactly (the unconditional short-circuit).
		id := e.Identity(n)
		if e.ConjTranspose(id) != id {
			t.Fatal("identity not self-adjoint")
		}
	}
}

// TestKronInjectAbortChaos checks the new abort probes inside the kron
// recursions: an injected abort must fire mid-kron, surface as an
// *AbortError, and leave the engine canonical and reusable.
func TestKronInjectAbortChaos(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	e := New()
	rng := rand.New(rand.NewSource(21))
	hi := e.FromVector(randState(rng, 8)) // dense: ~2^8 nodes to walk
	lo := e.FromVector(randState(rng, 4))
	if !e.InjectAbortAfter(10, AbortInjected) {
		t.Skip("fault injection did not arm (chaos disabled)")
	}
	ab := recoverAbort(func() { e.KronV(hi, lo) })
	if ab == nil {
		t.Fatal("injected abort did not fire inside kronV")
	}
	if ab.Reason != AbortInjected {
		t.Fatalf("abort reason = %v, want injected", ab.Reason)
	}

	mhi := e.MulMat(gateFromSeed(e, 1, 5), e.MulMat(gateFromSeed(e, 2, 5), gateFromSeed(e, 3, 5)))
	mlo := gateFromSeed(e, 4, 3)
	if !e.InjectAbortAfter(4, AbortInjected) {
		t.Skip("fault injection did not arm (chaos disabled)")
	}
	if ab := recoverAbort(func() { e.KronM(mhi, mlo) }); ab == nil {
		t.Fatal("injected abort did not fire inside kronM")
	}

	// Disarmed, both kron products must complete and the engine must
	// still pass the audit battery.
	kv := e.KronV(hi, lo)
	km := e.KronM(mhi, mlo)
	if kv.Qubits() != 12 || km.Qubits() != 8 {
		t.Fatalf("post-abort kron spans %d/%d, want 12/8", kv.Qubits(), km.Qubits())
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("audit after aborted krons: %v", err)
	}
}

// TestAuditDetectsIdentityBitCorruption flips the derived bit directly
// on live nodes — in both directions — and checks the audit pins it
// with the dedicated identity-bit check (the bit is excluded from the
// unique-table key and hash, so no other check can catch it).
func TestAuditDetectsIdentityBitCorruption(t *testing.T) {
	e := New()
	id := e.Identity(5)
	g := e.GateDD(gH, 5, 2, nil)
	if err := e.Audit(); err != nil {
		t.Fatalf("clean engine: %v", err)
	}

	id.N.isIdentity = false
	err := e.Audit()
	ie, ok := err.(*IntegrityError)
	if !ok {
		t.Fatalf("cleared identity bit undetected: %v", err)
	}
	if ie.Check != "identity-bit" && ie.Check != "identity-cache" {
		t.Fatalf("unexpected check %q: %v", ie.Check, err)
	}
	id.N.isIdentity = true

	g.N.isIdentity = true
	err = e.Audit()
	if ie, ok = err.(*IntegrityError); !ok || ie.Check != "identity-bit" {
		t.Fatalf("spurious identity bit undetected or misclassified: %v", err)
	}
	g.N.isIdentity = false

	if err := e.Audit(); err != nil {
		t.Fatalf("engine not clean after restoring bits: %v", err)
	}
}

// TestAuditIdentityBitFlipChaos corrupts the identity structure once
// it is built, keeps using it, and checks the audit battery catches
// every corruption — Engine.Audit must see damage under the identity
// bit.
func TestAuditIdentityBitFlipChaos(t *testing.T) {
	for _, id := range []uint32{1, 2, 3, 5} {
		e := New()
		idm := e.Identity(6)
		if !e.corruptNode(id, childSwap) {
			t.Fatalf("no live node %d to corrupt", id)
		}
		panicked := func() (p bool) {
			defer func() {
				if recover() != nil {
					p = true
				}
			}()
			_ = e.MulVec(idm, e.ZeroState(6))
			_ = e.MulMat(idm, e.GateDD(gH, 6, 3, nil))
			return false
		}()
		detected := panicked
		if !detected {
			if err := e.Audit(); err != nil {
				detected = true
			} else if err := e.AuditM(idm); err != nil {
				detected = true
			}
		}
		if !detected {
			t.Errorf("node %d: corrupted identity structure undetected", id)
		}
	}
}

// TestIdentitySkipStatsAccounting pins the skip counters: applying the
// identity itself must be one mat-vec skip covering all levels, and the
// mat-mat short-circuit must count once per absorbed operand.
func TestIdentitySkipStatsAccounting(t *testing.T) {
	e := New()
	const n = 7
	id := e.Identity(n)
	v := stateFromSeed(e, 99, n)

	before := e.Stats()
	if got := e.MulVec(id, v); got != v {
		t.Fatal("I·v changed the edge")
	}
	d := e.Stats()
	if d.IdentitySkipsMV-before.IdentitySkipsMV != 1 {
		t.Fatalf("IdentitySkipsMV delta = %d, want 1", d.IdentitySkipsMV-before.IdentitySkipsMV)
	}
	if d.IdentitySkipLevels-before.IdentitySkipLevels != n {
		t.Fatalf("IdentitySkipLevels delta = %d, want %d", d.IdentitySkipLevels-before.IdentitySkipLevels, n)
	}

	g := gateFromSeed(e, 5, n)
	before = e.Stats()
	if got := e.MulMat(g, id); got != g {
		t.Fatal("g×I changed the edge")
	}
	if got := e.MulMat(id, g); got != g {
		t.Fatal("I×g changed the edge")
	}
	d = e.Stats()
	if d.IdentitySkipsMM-before.IdentitySkipsMM != 2 {
		t.Fatalf("IdentitySkipsMM delta = %d, want 2", d.IdentitySkipsMM-before.IdentitySkipsMM)
	}

	// Scaled identities still short-circuit, through the weight only.
	w := complex(0, 1)
	if got := e.MulVec(e.ScaleM(id, w), v); got != e.ScaleV(v, w) {
		t.Fatal("(w·I)·v != w·v")
	}
	if e.Stats().IdentitySkipsMV == 0 {
		t.Fatal("scaled identity did not take the short-circuit")
	}
}
