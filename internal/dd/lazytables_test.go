package dd

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTablesAllocatedOnFirstProbe pins which compute caches, query
// memos and gate memo each kind of operation allocates: a fresh engine
// holds none, a mat-vec chain exactly add-v, mul-mv and the gate memo,
// a mat-mat product adds mul-mm and add-m, and each query allocates its
// own memo and nothing else. A compute cache starts at the floor.
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
	slots := func(step string, want [4]int) {
		t.Helper()
		m := e.MemStats()
		if got := [4]int{m.AddVSlots, m.AddMSlots, m.MulMVSlots, m.MulMMSlots}; got != want {
			t.Fatalf("after %s: compute tables (add-v, add-m, mul-mv, mul-mm) %v, want %v", step, got, want)
		}
	}
	slots("MulVec", [4]int{cacheFloor, 0, cacheFloor, 0})

	m := gates[0]
	for _, g := range gates[1:] {
		m = e.MulMat(g, m)
	}
	if s := e.Stats(); s.AddM.Lookups == 0 || s.MulMM.Lookups == 0 {
		t.Fatalf("mat-mat chain probed add-m %d and mul-mm %d times; the check needs both",
			s.AddM.Lookups, s.MulMM.Lookups)
	}
	want("MulMat", "add-v", "add-m", "mul-mv", "mul-mm", "gate")
	slots("MulMat", [4]int{cacheFloor, cacheFloor, cacheFloor, cacheFloor})

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

// TestCacheTableDoubling drives one table through its growth rule: it
// doubles on the conflict miss that takes it past an eighth of its
// slots, every current-generation entry present before the doubling
// still hits after it, stale ones are dropped, the cap holds, and the
// generation wrap-around restarts the table at the floor.
func TestCacheTableDoubling(t *testing.T) {
	SetCacheBounds(t, 64, 256)
	e := New()
	e.SetCacheGen(5)
	tab := &e.mulMVTab
	gen := e.cacheGen
	// Fill every slot of the floor table: the current generation at
	// even ids, a stale one at odd ids.
	var keys []mulMVSlot
	for id := uint32(0); len(keys) < 4*64; id++ {
		k := mulMVSlot{m: id, v: id + 1, r: VOne(), gen: gen}
		if id%2 == 1 {
			k.gen = gen - 1
		}
		keys = append(keys, k)
	}
	for _, k := range keys {
		if s := tab.at(k.hash()); s.gen != gen {
			*s = k
		}
	}
	held := map[mulMVSlot]bool{}
	for _, s := range tab.slots {
		if s.gen == gen {
			held[s] = true
		}
	}
	for i := 0; i <= 64/8; i++ {
		if len(tab.slots) != 64 {
			t.Fatalf("table doubled after %d conflict misses, want %d", i, 64/8+1)
		}
		tab.conflict(gen)
	}
	if len(tab.slots) != 128 || tab.conflicts != 0 {
		t.Fatalf("after %d conflict misses: %d slots, %d conflicts counted; want 128 and 0",
			64/8+1, len(tab.slots), tab.conflicts)
	}
	for k := range held {
		if s := tab.at(k.hash()); *s != k {
			t.Fatalf("entry %+v held before the doubling misses after it (slot holds %+v)", k, *s)
		}
	}
	live := 0
	for _, s := range tab.slots {
		if s.gen != 0 {
			live++
			if s.gen != gen {
				t.Fatalf("doubling moved the stale entry %+v", s)
			}
		}
	}
	if live != len(held) {
		t.Fatalf("doubled table holds %d entries, want the %d current ones", live, len(held))
	}

	for i := 0; i < 1000; i++ {
		tab.conflict(gen)
	}
	if len(tab.slots) != 256 {
		t.Fatalf("table at %d slots past the cap of 256", len(tab.slots))
	}

	e.SetCacheGen(math.MaxUint32)
	e.GarbageCollect(nil, nil)
	if tab.slots != nil {
		t.Fatalf("the wrap-around kept a %d-slot table", len(tab.slots))
	}
	tab.at(0)
	if len(tab.slots) != 64 || tab.conflicts != 0 {
		t.Fatalf("after the wrap-around: %d slots, %d conflicts; want the floor of 64 and 0",
			len(tab.slots), tab.conflicts)
	}
}
