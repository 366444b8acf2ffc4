// Package cnum provides tolerance-aware handling of the complex edge
// weights used throughout the decision-diagram engine.
//
// Floating-point rounding means that two computations of the "same"
// amplitude rarely produce bit-identical complex128 values. Decision
// diagrams, however, derive their compactness from recognising equal
// sub-structures, so weights must be compared — and, for hash-consing,
// canonicalised — up to a tolerance. This package supplies:
//
//   - approximate comparison helpers (Eq, IsZero, IsOne),
//   - a quantisation Key usable in hash tables, and
//   - a Table that maps each weight to a canonical representative so that
//     all values within tolerance of each other share one bit pattern.
//
// The engine interns only where exact comparison needs it: the
// normalised weights a node stores (its unique-table key) and the root
// weight of each diagram it hands out. Kernel temporaries — sums,
// scaled edges, product top weights, addition ratios — stay raw
// complex128 values, tested against zero with IsZero; the addition
// caches index a ratio by its Key and match it with Eq.
//
// The approach follows the accuracy/compactness treatment of
// Zulehner, Niemann, Drechsler, Wille (DATE 2019, ref [21] of the paper).
package cnum

import (
	"math"
	"math/cmplx"
)

// Tol is the default tolerance under which two floating-point values are
// considered equal. It is the accuracy-vs-compactness knob of ref [21]:
// at 1e-10 the merges of nearly equal weights compounded over the
// hundreds of repetitions of a combined Grover iterate (DD-repeating)
// into probability errors up to 1e-2 at 17 qubits and 0.1 at 18; at
// 1e-12, with only stored weights and roots interned and add-cache
// ratios matched within Tol, they stay within 1e-11 through 18 qubits,
// and the node counts of the runs TestGoldenRuns pins move by under
// 1 %.
const Tol = 1e-12

// Common constants used pervasively by gate definitions and the engine.
var (
	Zero = complex(0, 0)
	One  = complex(1, 0)
	// SqrtHalf is 1/√2, the Hadamard weight.
	SqrtHalf = complex(math.Sqrt2/2, 0)
)

// EqFloat reports whether two float64 values are equal within Tol.
func EqFloat(a, b float64) bool {
	return math.Abs(a-b) < Tol
}

// Eq reports whether two complex values are equal within Tol in both the
// real and the imaginary component.
func Eq(a, b complex128) bool {
	return EqFloat(real(a), real(b)) && EqFloat(imag(a), imag(b))
}

// IsZero reports whether c is zero within Tol.
func IsZero(c complex128) bool {
	return Eq(c, Zero)
}

// IsOne reports whether c is one within Tol.
func IsOne(c complex128) bool {
	return Eq(c, One)
}

// Key is a tolerance-quantised fingerprint of a complex value. Values
// whose components fall into the same quantisation cell share a Key.
// Values within Tol of each other land in the same or an adjacent cell;
// Table handles the adjacent-cell case.
type Key struct {
	Re, Im int64
}

// quantum is the cell width of the quantisation grid. It is a few times
// the tolerance so that values within Tol of a cell centre stay inside.
const quantum = 4 * Tol

// KeyOf returns the quantisation key of c.
func KeyOf(c complex128) Key {
	return Key{
		Re: int64(math.Round(real(c) / quantum)),
		Im: int64(math.Round(imag(c) / quantum)),
	}
}

// Table canonicalises complex values: Lookup returns, for every value,
// a representative such that any two inputs within Tol of each other
// return the identical bit pattern. Node hash-consing in the DD engine
// may then use exact comparison on canonical weights.
//
// Storage is an open-addressing hash table over quantisation keys
// (power-of-two capacity, linear probing, doubling at 3/4 load). A cell
// may hold several representatives — they then occupy separate slots
// with equal keys on the same probe chain. Lookup sits on the node
// creation hot path, where the previous map-of-slices layout cost nine
// map lookups plus an allocation per new weight.
//
// The zero Table is ready to use.
type Table struct {
	slots  []tableSlot
	count  int
	hits   uint64
	misses uint64
}

// tableSlot is one slot of a Table. A slot is occupied when rep != 0:
// Lookup answers exact and near zero with Zero before it inserts, so
// every stored representative has a component of magnitude ≥ Tol.
type tableSlot struct {
	key Key
	rep complex128
}

const tableInitSlots = 256

// hashKey mixes a quantisation key into a slot hash.
func hashKey(k Key) uint32 {
	h := uint64(k.Re)*0x9e3779b97f4a7c15 ^ uint64(k.Im)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return uint32(h)
}

// Lookup returns the canonical representative of c, registering c as a
// new representative if no existing one is within tolerance. Exact zero
// and one short-circuit so that the ubiquitous structural weights stay
// bit-exact.
func (t *Table) Lookup(c complex128) complex128 {
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
	// KeyOf(c), keeping the grid coordinates for probeSpan.
	x, y := real(c)/quantum, imag(c)/quantum
	kx, ky := math.Round(x), math.Round(y)
	k := Key{int64(kx), int64(ky)}
	// A value within Tol of c may have been quantised into a neighbouring
	// cell; probe those of the 3×3 neighbourhood that can hold one.
	rLo, rHi := probeSpan(x, kx)
	iLo, iHi := probeSpan(y, ky)
	mask := uint32(len(t.slots) - 1)
	for dr := rLo; dr <= rHi; dr++ {
		for di := iLo; di <= iHi; di++ {
			nk := Key{k.Re + dr, k.Im + di}
			for i := hashKey(nk) & mask; t.slots[i].rep != 0; i = (i + 1) & mask {
				if t.slots[i].key == nk && Eq(t.slots[i].rep, c) {
					t.hits++
					return t.slots[i].rep
				}
			}
		}
	}
	t.misses++
	t.insert(k, c)
	return c
}

// probeSlack is the margin δ of probeSpan, in cells.
const probeSlack = 1.0 / 64

// probeSpan returns the cell offsets, along one axis, that Lookup must
// probe for a component whose grid coordinate is x = v/quantum and whose
// cell is k = round(x).
//
// With f = x − k, a representative r in cell k+1 has r/quantum ≥ k + ½,
// so it lies at least (½ − f)·quantum away from v. Whenever f ≤ ¼ − δ
// that is (¼ + δ)·quantum = Tol + 4δ·Tol > Tol, so cell k+1 cannot hold
// a match and is skipped; likewise cell k−1 whenever f ≥ −¼ + δ. The
// slack δ absorbs the rounding of x, f and the stored keys, which stays
// far below δ while |x| ≤ 2^40, that is |v| ≤ 2^40·quantum ≈ 4.4: there
// the rounding of v, of v/quantum and of Eq's difference is at most
// ~5e-16, against a margin of 4δ·Tol = Tol/16 ≈ 6e-14. Normalised edge
// weights have |v| ≤ 1. Beyond 2^40 cells, and for NaN and ±Inf, the
// full span is probed. Lookup visits the surviving cells in the same
// ascending order as the full 3×3 scan, so it finds the same first
// match, inserts the same representatives and counts the same hits and
// misses; it only skips cells that hold no match.
func probeSpan(x, k float64) (lo, hi int64) {
	if !(math.Abs(x) <= 1<<40) {
		return -1, 1
	}
	f := x - k
	if f < -0.25+probeSlack {
		lo = -1
	}
	if f > 0.25-probeSlack {
		hi = 1
	}
	return lo, hi
}

// insert registers a new representative, growing the table as needed.
func (t *Table) insert(k Key, c complex128) {
	if (t.count+1)*4 >= len(t.slots)*3 {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	i := hashKey(k) & mask
	for t.slots[i].rep != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = tableSlot{key: k, rep: c}
	t.count++
}

func (t *Table) grow() {
	old := t.slots
	t.slots = make([]tableSlot, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.rep == 0 {
			continue
		}
		i := hashKey(s.key) & mask
		for t.slots[i].rep != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Canonical reports whether c is exactly a value Lookup could have
// returned: one of the exact zero/one short-circuits, or bit-identical
// to a stored representative. Unlike Lookup it never inserts, which
// makes it safe for integrity audits of a live table — every edge
// weight a DD engine stores went through Lookup, so a weight for which
// Canonical is false has been corrupted after canonicalisation.
func (t *Table) Canonical(c complex128) bool {
	if c == Zero || c == One {
		return true
	}
	// A value within tolerance of zero/one but not bit-equal can never
	// come out of Lookup (the short-circuits fire first).
	if IsZero(c) || Eq(c, One) {
		return false
	}
	if t.slots == nil {
		return false
	}
	// Bit-identity implies the same quantisation key, so only the exact
	// cell needs probing (Lookup's neighbour cells are for tolerance
	// matches of *different* bit patterns).
	k := KeyOf(c)
	mask := uint32(len(t.slots) - 1)
	for i := hashKey(k) & mask; t.slots[i].rep != 0; i = (i + 1) & mask {
		if t.slots[i].key == k && t.slots[i].rep == c {
			return true
		}
	}
	return false
}

// Size returns the number of distinct representatives stored.
func (t *Table) Size() int { return t.count }

// Stats returns the number of Lookup calls that were answered from an
// existing representative (hits) and the number that registered a new
// one (misses). Exact zero/one short-circuits are counted in neither.
func (t *Table) Stats() (hits, misses uint64) {
	return t.hits, t.misses
}

// ResetStats zeroes the hit and miss counts; the representatives stay.
func (t *Table) ResetStats() { t.hits, t.misses = 0, 0 }

// Reset discards all representatives and statistics.
func (t *Table) Reset() {
	t.slots = nil
	t.count = 0
	t.hits, t.misses = 0, 0
}

// Abs2 returns |c|², the squared magnitude — the probability weight of an
// amplitude.
func Abs2(c complex128) float64 {
	return real(c)*real(c) + imag(c)*imag(c)
}

// Polar returns the magnitude and phase of c, convenience over cmplx.
func Polar(c complex128) (r, theta float64) {
	return cmplx.Polar(c)
}
