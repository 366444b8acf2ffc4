package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// Tests for the engine memory layer: open-addressing unique tables,
// arena recycling, generation-stamped caches and the GC statistics.

// Property: hash-consing canonicity survives garbage collection and
// arena recycling. Rebuilding a kept diagram reuses every node
// (pointer-identical root, zero creations); rebuilding after dropping
// everything re-creates exactly the original node count from recycled
// storage.
func TestQuickGCCanonicity(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%5 + 2
		e := New()
		base := e.Stats().NodesCreated
		v := stateFromSeed(e, seed, n)
		delta := e.Stats().NodesCreated - base
		want := v.ToVector()

		e.GarbageCollect([]VEdge{v}, nil)
		before := e.Stats().NodesCreated
		w := stateFromSeed(e, seed, n)
		if w.N != v.N || e.Stats().NodesCreated != before {
			return false
		}

		// v and w are dead after this collection; only the stored vector
		// may be consulted below.
		e.GarbageCollect(nil, nil)
		before = e.Stats().NodesCreated
		u := stateFromSeed(e, seed, n)
		if e.Stats().NodesCreated-before != delta {
			return false
		}
		got := u.ToVector()
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: abort-anywhere safety. A fault-injected abort (rehearsing
// the deadline / budget / cancellation reasons) at an arbitrary kernel
// probe leaves the engine canonical: after a full collection, re-running
// the same workload creates exactly the NodesCreated delta of a fresh
// engine, rebuilds are pointer-identical, and the amplitudes match an
// engine that never aborted.
func TestQuickAbortCanonicity(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	reasons := []AbortReason{AbortDeadline, AbortBudget, AbortCanceled, AbortInjected}
	workload := func(e *Engine, seed int64, n int) VEdge {
		v := stateFromSeed(e, seed, n)
		g := e.GateDD(randUnitary(rand.New(rand.NewSource(seed+1))), n, int(seed&1), nil)
		w := e.MulVec(g, v)
		return e.Add(v, w)
	}
	f := func(seed int64, nRaw, probeRaw, reasonRaw uint8) bool {
		n := int(nRaw)%4 + 2

		// Reference: probe count and node delta of an abort-free run
		// (armed with a budget it can never hit so probes advance).
		ref := New()
		ref.SetBudget(1 << 30)
		refRoot := workload(ref, seed, n)
		refDelta := ref.Stats().NodesCreated
		total := ref.Probes()
		if total == 0 {
			return true
		}
		probeN := uint64(probeRaw)%total + 1
		reason := reasons[int(reasonRaw)%len(reasons)]

		e := New()
		if !e.InjectAbortAfter(probeN, reason) {
			t.Fatal("fault injection did not arm")
		}
		aborted := func() (ok bool) {
			defer func() {
				if rec := recover(); rec != nil {
					a, is := AsAbort(rec)
					ok = is && a.Reason == reason
				}
			}()
			workload(e, seed, n)
			return false
		}()
		if !aborted {
			return false
		}

		// Everything the aborted run built is garbage; collect it all.
		e.GarbageCollect(nil, nil)
		before := e.Stats().NodesCreated
		got := workload(e, seed, n)
		if e.Stats().NodesCreated-before != refDelta {
			return false
		}
		// Canonicity: an immediate rebuild reuses every node.
		if again := workload(e, seed, n); again.N != got.N {
			return false
		}
		return vecApproxEq(got, refRoot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestUniqueTableChurnFuzz hammers the unique tables with random
// inserts and collections, checking the open-addressing invariants
// (occupancy accounting, growth, tombstone reuse) and that every
// surviving diagram stays canonical and numerically intact.
func TestUniqueTableChurnFuzz(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(99))
	type kept struct {
		root VEdge
		vec  []complex128
	}
	var pool []kept
	grew, sawTombstones := false, false
	baseCap := e.MemStats().VCapacity
	for round := 0; round < 60; round++ {
		for i := 0; i < 3; i++ {
			n := 4 + rng.Intn(5)
			v := e.FromVector(randState(rng, n))
			pool = append(pool, kept{v, v.ToVector()})
		}
		if round%7 == 6 {
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			pool = pool[:len(pool)/2]
			roots := make([]VEdge, len(pool))
			for i, k := range pool {
				roots[i] = k.root
			}
			e.GarbageCollect(roots, nil)
		}
		m := e.MemStats()
		if m.VCapacity > baseCap {
			grew = true
		}
		if m.VTombstones > 0 {
			sawTombstones = true
		}
		if m.VLive != e.VNodeCount() {
			t.Fatalf("round %d: MemStats live %d != VNodeCount %d", round, m.VLive, e.VNodeCount())
		}
		if m.VLive+m.VTombstones > m.VCapacity {
			t.Fatalf("round %d: occupancy %d+%d exceeds capacity %d",
				round, m.VLive, m.VTombstones, m.VCapacity)
		}
		// Canonicity spot check: re-encoding a survivor's vector must land
		// on the identical root node.
		if len(pool) > 0 {
			k := pool[rng.Intn(len(pool))]
			if again := e.FromVector(k.vec); again.N != k.root.N {
				t.Fatalf("round %d: rebuild not canonical after churn", round)
			}
		}
	}
	if !grew {
		t.Fatal("unique table never grew past its initial capacity")
	}
	if !sawTombstones {
		t.Fatal("collections never left tombstones to exercise reuse")
	}
	for i, k := range pool {
		got := k.root.ToVector()
		for j := range k.vec {
			if cmplx.Abs(got[j]-k.vec[j]) > 1e-9 {
				t.Fatalf("survivor %d corrupted at amplitude %d", i, j)
			}
		}
	}
}

// TestPerCacheCounters checks that each of the four compute caches
// counts lookups and hits separately and that the aggregate counters
// are exactly their sum.
func TestPerCacheCounters(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(5))
	a := e.FromVector(randState(rng, 4))
	b := e.FromVector(randState(rng, 4))
	g := e.GateDD(randUnitary(rng), 4, 1, nil)
	h := e.GateDD(randUnitary(rng), 4, 2, nil)
	// Each pair of identical calls guarantees at least one hit in the
	// corresponding cache (the second call replays the top-level entry).
	_, _ = e.Add(a, b), e.Add(a, b)
	_, _ = e.AddM(g, h), e.AddM(g, h)
	_, _ = e.MulVec(g, a), e.MulVec(g, a)
	_, _ = e.MulMat(g, h), e.MulMat(g, h)
	s := e.Stats()
	for name, c := range map[string]CacheStats{
		"AddV": s.AddV, "AddM": s.AddM, "MulMV": s.MulMV, "MulMM": s.MulMM,
	} {
		if c.Lookups == 0 {
			t.Errorf("%s cache saw no lookups", name)
		}
		if c.Hits == 0 {
			t.Errorf("%s cache saw no hits", name)
		}
		if c.Hits > c.Lookups {
			t.Errorf("%s cache hits %d exceed lookups %d", name, c.Hits, c.Lookups)
		}
		if r := c.HitRate(); r <= 0 || r > 1 {
			t.Errorf("%s hit rate %v out of range", name, r)
		}
	}
	if want := s.AddV.Lookups + s.AddM.Lookups + s.MulMV.Lookups + s.MulMM.Lookups; s.CacheLookups != want {
		t.Errorf("aggregate lookups %d, want sum of per-cache %d", s.CacheLookups, want)
	}
	if want := s.AddV.Hits + s.AddM.Hits + s.MulMV.Hits + s.MulMM.Hits; s.CacheHits != want {
		t.Errorf("aggregate hits %d, want sum of per-cache %d", s.CacheHits, want)
	}
}

// TestGCStatsAndRecycling checks the collection accounting: recycled
// nodes land on the arena free lists and feed subsequent allocations
// instead of fresh chunks.
func TestGCStatsAndRecycling(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(11))
	keep := e.FromVector(randState(rng, 8))
	for i := 0; i < 10; i++ {
		e.FromVector(randState(rng, 8))
	}
	e.GarbageCollect([]VEdge{keep}, nil)
	s := e.Stats()
	if s.GCs != 1 {
		t.Fatalf("GCs = %d, want 1", s.GCs)
	}
	if s.NodesRecycled == 0 {
		t.Fatal("collection recycled no nodes")
	}
	if s.GCMaxPause <= 0 || s.GCPause < s.GCMaxPause {
		t.Fatalf("pause accounting inconsistent: total %v, max %v", s.GCPause, s.GCMaxPause)
	}
	m := e.MemStats()
	if m.VFree == 0 {
		t.Fatal("free list empty after collection")
	}
	// Free-listed nodes keep their arena index, so the unique-table
	// slots that will refer to them after recycling resolve to them.
	free := map[uint32]bool{}
	for n := e.vArena.free; n != nil; n = n.E[0].N {
		if n.idx >= e.vArena.n || e.vArena.at(n.idx) != n {
			t.Fatalf("free-listed node records arena index %d it does not occupy", n.idx)
		}
		free[n.idx] = true
	}
	e.FromVector(randState(rng, 8))
	reused := 0
	for _, s := range e.vUnique.slots {
		if s.ref != slotEmpty && s.ref != slotTomb && free[s.ref-1] {
			if n := e.vArena.at(s.ref - 1); n.idx != s.ref-1 || n.id == 0 {
				t.Fatalf("slot for arena index %d resolves to a node recording index %d, id %d", s.ref-1, n.idx, n.id)
			}
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no unique-table slot refers to a recycled arena index")
	}
	m2 := e.MemStats()
	if m2.VChunks != m.VChunks {
		t.Fatalf("allocation grew a chunk (%d -> %d) despite %d free nodes",
			m.VChunks, m2.VChunks, m.VFree)
	}
	if m2.VFree >= m.VFree {
		t.Fatalf("allocation did not consume the free list (%d -> %d)", m.VFree, m2.VFree)
	}
}

// TestEpochWrapAround forces the traversal epoch to wrap and checks
// that marks are reset everywhere — including free-listed arena nodes —
// so no stale mark can alias the fresh epoch.
func TestEpochWrapAround(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(3))
	keep := e.FromVector(randState(rng, 6))
	for i := 0; i < 4; i++ {
		e.FromVector(randState(rng, 6))
	}
	e.GarbageCollect([]VEdge{keep}, nil) // populate the free lists
	want := e.SizeV(keep)
	vec := keep.ToVector()

	e.epoch = math.MaxUint32 // next bump wraps
	if got := e.SizeV(keep); got != want {
		t.Fatalf("SizeV across epoch wrap = %d, want %d", got, want)
	}
	if e.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", e.epoch)
	}
	for i := uint32(0); i < e.vArena.n; i++ {
		if m := e.vArena.at(i).mark; m > e.epoch {
			t.Fatalf("node mark %d at arena index %d survived the wrap (epoch %d)", m, i, e.epoch)
		}
	}
	for n := e.vArena.free; n != nil; n = n.E[0].N {
		if n.mark != 0 {
			t.Fatalf("free-listed node kept mark %d across the wrap", n.mark)
		}
	}
	// A collection right after the wrap must still see the root as live.
	e.GarbageCollect([]VEdge{keep}, nil)
	got := keep.ToVector()
	for i := range vec {
		if cmplx.Abs(got[i]-vec[i]) > 1e-9 {
			t.Fatal("kept state corrupted by post-wrap collection")
		}
	}
}
