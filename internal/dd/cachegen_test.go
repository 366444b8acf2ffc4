package dd_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/supremacy"
)

// runGates applies every gate of c to |0…0> on e, one mat-vec step per
// gate, and returns the final amplitudes.
func runGates(e *dd.Engine, c *circuit.Circuit) []complex128 {
	v := e.ZeroState(c.NQubits)
	for _, g := range c.Gates {
		v = e.MulVec(e.GateDD(g.Matrix, c.NQubits, g.Target, g.Controls), v)
	}
	return v.ToVector()
}

// counters returns e's statistics without the collection pause times,
// the only fields that read the clock.
func counters(e *dd.Engine) dd.Stats {
	s := e.Stats()
	s.GCPause, s.GCMaxPause = 0, 0
	return s
}

// TestCacheGenerationWrap drives clearCaches through the wrap-around of
// its 32-bit generation. The wrap restarts the generation at 1, the
// stamp every entry written in the engine's first generation carries,
// so it must drop the tables: a kept gate-memo entry from that first
// generation would be a hit on a freed node. Two engines share one
// history, a supremacy 3×3 run and a collection of everything it built,
// and differ only in whether that collection wraps; the second run must
// then give the same amplitude bits and the same counters on both, and
// the amplitude bits of a fresh engine, with tables back at the floor.
// (A fresh engine's counters
// differ: the kept weight table and the later node ids change which
// weights are new and which cache slots collide.)
func TestCacheGenerationWrap(t *testing.T) {
	c := supremacy.Circuit(3, 3, 10, 1)
	plain, wrapped := dd.New(), dd.New()
	for _, e := range []*dd.Engine{plain, wrapped} {
		runGates(e, c)
	}
	wrapped.SetCacheGen(math.MaxUint32)
	for _, e := range []*dd.Engine{plain, wrapped} {
		e.GarbageCollect(nil, nil)
		e.ResetStats()
	}
	if got := wrapped.AllocatedTables(); len(got) != 0 {
		t.Fatalf("after the wrap-around collection the engine still holds %v", got)
	}

	want, got := runGates(plain, c), runGates(wrapped, c)
	if !sameAmps(got, want) {
		t.Fatal("amplitudes after the wrap differ from the plain collection's")
	}
	if s, w := counters(wrapped), counters(plain); s != w {
		t.Fatalf("counters after the wrap differ:\n got %+v\nwant %+v", s, w)
	}
	if ref := runGates(dd.New(), c); !sameAmps(got, ref) {
		t.Fatal("amplitudes after the wrap differ from a fresh engine's")
	}
	// The dropped tables restart at the floor, the size the plain
	// engine's kept ones never grew past on this circuit.
	if m, w := wrapped.MemStats(), plain.MemStats(); m != w || m.AddVSlots != 1<<13 || m.MulMVSlots != 1<<13 {
		t.Fatalf("after the wrap the engine's tables are\n got %+v\nwant %+v, add-v and mul-mv at 2^13", m, w)
	}
}

func sameAmps(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}
