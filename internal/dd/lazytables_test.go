package dd

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTablesAllocatedOnFirstProbe pins which compute caches, query
// memos and gate memo each kind of operation allocates: a fresh engine
// holds none, a mat-vec chain exactly add-v, mul-mv and the gate memo,
// a mat-mat product adds mul-mm and add-m, and each query allocates its
// own memo and nothing else.
func TestTablesAllocatedOnFirstProbe(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(25))
	e := New()
	want := func(step string, tables ...string) {
		t.Helper()
		if got := e.AllocatedTables(); !slices.Equal(got, tables) {
			t.Fatalf("after %s: tables %v, want %v", step, got, tables)
		}
	}
	want("New")

	gates := make([]MEdge, 8)
	for i := range gates {
		tgt := rng.Intn(n)
		var controls []Control
		if i%2 == 1 {
			controls = []Control{{Qubit: (tgt + 1) % n}}
		}
		gates[i] = e.GateDD(randUnitary(rng), n, tgt, controls)
	}
	v := e.FromVector(randState(rng, n))
	for _, g := range gates {
		v = e.MulVec(g, v)
	}
	if s := e.Stats(); s.AddV.Lookups == 0 || s.MulMV.Lookups == 0 {
		t.Fatalf("mat-vec chain probed add-v %d and mul-mv %d times; the check needs both",
			s.AddV.Lookups, s.MulMV.Lookups)
	}
	want("MulVec", "add-v", "mul-mv", "gate")

	m := gates[0]
	for _, g := range gates[1:] {
		m = e.MulMat(g, m)
	}
	if s := e.Stats(); s.AddM.Lookups == 0 || s.MulMM.Lookups == 0 {
		t.Fatalf("mat-mat chain probed add-m %d and mul-mm %d times; the check needs both",
			s.AddM.Lookups, s.MulMM.Lookups)
	}
	want("MulMat", "add-v", "add-m", "mul-mv", "mul-mm", "gate")

	// Each query on an engine that has only built its operands.
	for _, q := range []struct {
		name  string
		table string
		run   func(e *Engine, v VEdge, m MEdge)
	}{
		{"InnerProduct", "inner-product", func(e *Engine, v VEdge, _ MEdge) { e.InnerProduct(v, v) }},
		{"Trace", "trace", func(e *Engine, _ VEdge, m MEdge) { e.Trace(m) }},
		{"Project", "projection", func(e *Engine, v VEdge, _ MEdge) { e.Project(v, 1, 0) }},
		{"ConjTranspose", "adjoint", func(e *Engine, _ VEdge, m MEdge) { e.ConjTranspose(m) }},
	} {
		e = New()
		v := e.FromVector(randState(rng, n))
		m := e.GateDD(randUnitary(rng), n, 1, []Control{{Qubit: 2}})
		want(q.name+" operands", "gate")
		q.run(e, v, m)
		want(q.name, q.table, "gate")
	}
}
