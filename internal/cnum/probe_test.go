package cnum

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lookupFullScan is Lookup with the unpruned probe: it scans all nine
// cells of the 3×3 neighbourhood. It is the reference the pruned probe
// must reproduce bit for bit.
func (t *Table) lookupFullScan(c complex128) complex128 {
	if c == Zero || c == One {
		return c
	}
	if IsZero(c) {
		return Zero
	}
	if Eq(c, One) {
		return One
	}
	if t.slots == nil {
		t.slots = make([]tableSlot, tableInitSlots)
	}
	k := KeyOf(c)
	mask := uint32(len(t.slots) - 1)
	for dr := int64(-1); dr <= 1; dr++ {
		for di := int64(-1); di <= 1; di++ {
			nk := Key{k.Re + dr, k.Im + di}
			for i := hashKey(nk) & mask; t.slots[i].rep != 0; i = (i + 1) & mask {
				if r := t.slots[i].rep; Eq(r, c) && KeyOf(r) == nk {
					t.hits++
					return r
				}
			}
		}
	}
	t.misses++
	t.insert(k, c)
	return c
}

// sameBits reports whether a and b have identical IEEE-754 bits (so NaN
// payloads and the sign of zero count).
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// twin feeds every value to a Table through Lookup and to its twin
// through lookupFullScan, and checks after each call that the two agree
// on the returned bits, Size, Stats and every slot.
type twin struct {
	pruned, full Table
	calls        int
}

func (w *twin) lookup(c complex128) error {
	w.calls++
	got, want := w.pruned.Lookup(c), w.full.lookupFullScan(c)
	if !sameBits(got, want) {
		return fmt.Errorf("call %d: Lookup(%v) = %v, full scan %v", w.calls, c, got, want)
	}
	p, f := &w.pruned, &w.full
	if p.Size() != f.Size() {
		return fmt.Errorf("call %d: Lookup(%v): Size %d, full scan %d", w.calls, c, p.Size(), f.Size())
	}
	ph, pm := p.Stats()
	fh, fm := f.Stats()
	if ph != fh || pm != fm {
		return fmt.Errorf("call %d: Lookup(%v): Stats (%d,%d), full scan (%d,%d)", w.calls, c, ph, pm, fh, fm)
	}
	if len(p.slots) != len(f.slots) {
		return fmt.Errorf("call %d: %d slots, full scan %d", w.calls, len(p.slots), len(f.slots))
	}
	for i := range p.slots {
		if !sameBits(p.slots[i].rep, f.slots[i].rep) {
			return fmt.Errorf("call %d: Lookup(%v): slot %d holds %+v, full scan %+v", w.calls, c, i, p.slots[i], f.slots[i])
		}
	}
	return nil
}

func (w *twin) run(t *testing.T, vals []complex128) {
	t.Helper()
	for _, c := range vals {
		if err := w.lookup(c); err != nil {
			t.Fatal(err)
		}
	}
}

// edgeCoords returns grid coordinates (in cells, so the value is
// x·quantum) at and a few ulps either side of the pruning thresholds
// ±¼, ±(¼−δ) and of the cell edges ±½, around the cells in ks.
func edgeCoords(ks []float64) []float64 {
	var out []float64
	for _, k := range ks {
		for _, f := range []float64{0, 0.25, -0.25, 0.25 - probeSlack, -0.25 + probeSlack, 0.25 + probeSlack, -0.25 - probeSlack, 0.5, -0.5, 0.5 - probeSlack, -0.5 + probeSlack} {
			for n := -3; n <= 3; n++ {
				out = append(out, nudge(k+f, n))
			}
		}
	}
	return out
}

// nudge moves v by n ulps (towards +Inf for n > 0).
func nudge(v float64, n int) float64 {
	for ; n > 0; n-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; n < 0; n++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// TestPrunedProbeMatchesFullScan is the differential test of the pruned
// probe against the full 3×3 scan.
func TestPrunedProbeMatchesFullScan(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		var w twin
		var vals []complex128
		for i := 0; i < 3000; i++ {
			c := complex(rng.Float64()*4-2, rng.Float64()*4-2)
			if i > 0 && i%3 == 0 {
				// Revisit an earlier value within tolerance.
				p := vals[rng.Intn(len(vals))]
				c = p + complex((rng.Float64()-0.5)*Tol, (rng.Float64()-0.5)*Tol)
			}
			vals = append(vals, c)
		}
		w.run(t, vals)
	})
	t.Run("clusters", func(t *testing.T) {
		// Values within 2·Tol of a centre: one query then lies within Tol
		// of several representatives, in several cells, so the first match
		// in probe order decides what it returns.
		rng := rand.New(rand.NewSource(2))
		var w twin
		var vals []complex128
		for cl := 0; cl < 60; cl++ {
			centre := complex(rng.Float64()*2-1, rng.Float64()*2-1)
			for i := 0; i < 60; i++ {
				vals = append(vals, centre+complex((rng.Float64()-0.5)*4*Tol, (rng.Float64()-0.5)*4*Tol))
			}
		}
		w.run(t, vals)
	})
	t.Run("thresholds", func(t *testing.T) {
		// Coordinates on and next to ±¼, ±(¼−δ) and the cell edges, with
		// negative cells and a near-zero component among them.
		xs := edgeCoords([]float64{-7, -1, 0, 1, 3})
		rng := rand.New(rand.NewSource(3))
		var w twin
		var vals []complex128
		for _, x := range xs {
			vals = append(vals, complex(x*quantum, 0.5), complex(0.5, x*quantum), complex(x*quantum, -x*quantum))
		}
		for i := 0; i < 3000; i++ {
			vals = append(vals, complex(xs[rng.Intn(len(xs))]*quantum, xs[rng.Intn(len(xs))]*quantum))
		}
		w.run(t, vals)
	})
	t.Run("special", func(t *testing.T) {
		big := float64(1 << 40)
		var vals []complex128
		for _, x := range edgeCoords([]float64{big - 1, big, big + 1, -big}) {
			vals = append(vals, complex(x*quantum, 0.25), complex(0.25, x*quantum))
		}
		for _, v := range []float64{big * quantum, -big * quantum, 2 * big * quantum, 1e300, -math.MaxFloat64} {
			for n := -2; n <= 2; n++ {
				vals = append(vals, complex(nudge(v, n), 0.5), complex(0.5, nudge(v, n)))
			}
		}
		nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
		vals = append(vals,
			complex(nan, 0), complex(0, nan), complex(nan, nan), complex(nan, 0.3),
			complex(inf, 0), complex(-inf, 0), complex(0, inf), complex(inf, -inf), complex(0.3, -inf),
			complex(nan, 0), complex(inf, 0), // again: a NaN never matches, an Inf never within Tol
			complex(Tol/3, 0.5), complex(-Tol/3, 0.5), complex(0.5, Tol/2), complex(0.5+Tol/4, Tol/2),
			complex(negZero, 0.7), complex(0.7, negZero), complex(Tol, 0), complex(-Tol, Tol),
			complex(-0.3, -0.4), complex(-0.3-Tol/2, -0.4+Tol/2),
		)
		var w twin
		w.run(t, vals)
	})
}

// FuzzTableLookup drives the twin tables with a sequence decoded from
// the input (see decodeOps). Its seed corpus lies under testdata/fuzz.
func FuzzTableLookup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var w twin
		for _, c := range decodeOps(data) {
			if err := w.lookup(c); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// decodeOps turns fuzz input into at most 512 values. Each value starts
// with an op byte:
//
//	0: 16 bytes of raw float64 bits (real, imaginary)
//	1: two int32 grid points in units of quantum/64, so ±¼ and ±(¼−δ)
//	   are reachable exactly
//	2: the previous value plus two int8 offsets in units of Tol/32
//	3: the previous value moved by two int8 ulp counts
func decodeOps(data []byte) []complex128 {
	var out []complex128
	prev := complex(0.5, 0.5)
	for len(data) > 0 && len(out) < 512 {
		op := data[0] % 4
		data = data[1:]
		need := [4]int{16, 8, 2, 2}[op]
		if len(data) < need {
			break
		}
		b := data[:need]
		data = data[need:]
		switch op {
		case 0:
			prev = complex(math.Float64frombits(binary.LittleEndian.Uint64(b)), math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
		case 1:
			re := float64(int32(binary.LittleEndian.Uint32(b))) * quantum / 64
			im := float64(int32(binary.LittleEndian.Uint32(b[4:]))) * quantum / 64
			prev = complex(re, im)
		case 2:
			prev += complex(float64(int8(b[0]))*Tol/32, float64(int8(b[1]))*Tol/32)
		case 3:
			prev = complex(nudge(real(prev), int(int8(b[0]))), nudge(imag(prev), int(int8(b[1]))))
		}
		out = append(out, prev)
	}
	return out
}

// BenchmarkTableLookupLarge looks values up in a table pre-filled with
// 2^18 representatives (512k slots, 16 MiB), far larger than the CPU
// caches, as a long simulation's weight table is. Of every four queries
// two hit a representative, one is pushed across a cell edge towards a
// neighbouring cell but still hits, and one misses and inserts. After
// each pass over the queries the misses are removed again, newest first,
// which restores the table exactly, so every pass sees the same table;
// the removal is part of the timed loop.
func BenchmarkTableLookupLarge(b *testing.B) {
	const reps, nQueries = 1 << 18, 1 << 16
	rng := rand.New(rand.NewSource(1))
	uniform := func() complex128 { return complex(rng.Float64()*2-1, rng.Float64()*2-1) }
	var tbl Table
	stored := make([]complex128, reps)
	for i := range stored {
		stored[i] = uniform()
		tbl.Lookup(stored[i])
	}
	// towardEdge moves v by 0.55–0.95·Tol towards the nearer edge of its
	// cell.
	towardEdge := func(v float64) float64 {
		x := v / quantum
		d := (0.55 + 0.4*rng.Float64()) * Tol
		if x < math.Round(x) {
			d = -d
		}
		return v + d
	}
	queries := make([]complex128, nQueries)
	var missVals []complex128
	for i := range queries {
		r := stored[rng.Intn(reps)]
		switch i % 4 {
		case 0, 1:
			queries[i] = r + complex((rng.Float64()-0.5)*Tol, (rng.Float64()-0.5)*Tol)
		case 2:
			queries[i] = complex(towardEdge(real(r)), towardEdge(imag(r)))
		case 3:
			queries[i] = uniform()
		}
	}
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	for _, q := range queries {
		_, before := tbl.Stats()
		tbl.Lookup(q)
		if _, after := tbl.Stats(); after > before {
			missVals = append(missVals, q)
		}
	}
	if len(missVals) != nQueries/4 {
		b.Fatalf("%d of %d queries missed, want %d", len(missVals), nQueries, nQueries/4)
	}
	undo := func() {
		mask := uint32(len(tbl.slots) - 1)
		for j := len(missVals) - 1; j >= 0; j-- {
			v := missVals[j]
			i := hashKey(KeyOf(v)) & mask
			for tbl.slots[i].rep != v {
				i = (i + 1) & mask
			}
			tbl.slots[i] = tableSlot{}
			tbl.count--
		}
	}
	undo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % nQueries
		tbl.Lookup(queries[j])
		if j == nQueries-1 {
			undo()
		}
	}
}
