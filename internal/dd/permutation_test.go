package dd_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dd"
	"repro/internal/shor"
)

type permCase struct {
	name string
	n    int
	perm func(uint64) uint64
}

// permCases are the differential inputs: a random permutation, the
// identity and the bit reversal for every n = 0..10, and the
// DD-construct Shor oracles x → a·x mod N for several moduli.
func permCases() []permCase {
	rng := rand.New(rand.NewSource(15))
	var cases []permCase
	for n := 0; n <= 10; n++ {
		p := rng.Perm(1 << uint(n))
		shift := uint(64 - n)
		cases = append(cases,
			permCase{fmt.Sprintf("random/n=%d", n), n, func(x uint64) uint64 { return uint64(p[x]) }},
			permCase{fmt.Sprintf("identity/n=%d", n), n, func(x uint64) uint64 { return x }},
			permCase{fmt.Sprintf("bitreverse/n=%d", n), n, func(x uint64) uint64 {
				if n == 0 {
					return 0
				}
				return bits.Reverse64(x) >> shift
			}},
		)
	}
	for _, m := range []struct{ a, modN uint64 }{{7, 15}, {2, 21}, {5, 33}, {602, 1007}, {17, 1851}, {2409, 2561}} {
		n := bits.Len64(m.modN)
		cases = append(cases, permCase{fmt.Sprintf("shor/%d_%d", m.modN, m.a), n, shor.MultiplyPermutation(n, m.a, m.modN)})
	}
	return cases
}

// TestFromPermutationMatchesReference builds every case with the direct
// builder and the AddM-summing reference on one engine: the edges must
// be ==, the direct build must run no addition, and it must call perm
// exactly once per x in ascending order.
func TestFromPermutationMatchesReference(t *testing.T) {
	e := dd.New()
	for _, c := range permCases() {
		var calls []uint64
		before := e.Stats().AddRecursions
		got := e.FromPermutation(c.n, func(x uint64) uint64 {
			calls = append(calls, x)
			return c.perm(x)
		})
		if d := e.Stats().AddRecursions - before; d != 0 {
			t.Errorf("%s: direct build ran %d add recursions", c.name, d)
		}
		if len(calls) != 1<<uint(c.n) {
			t.Errorf("%s: perm called %d times, want %d", c.name, len(calls), 1<<uint(c.n))
		}
		for i, x := range calls {
			if x != uint64(i) {
				t.Errorf("%s: call %d was perm(%d), want ascending x", c.name, i, x)
				break
			}
		}
		if ref := e.RefFromPermutation(c.n, c.perm); got != ref {
			t.Errorf("%s: direct build %v differs from the reference %v", c.name, got, ref)
		}
		if strings.HasPrefix(c.name, "identity/") && got != e.Identity(c.n) {
			t.Errorf("%s: identity permutation is not the identity DD", c.name)
		}
	}
}

// TestFromPermutationRejects checks every rejection panics with its
// message before any node is created; the bad image comes last, so the
// whole range is validated first.
func TestFromPermutationRejects(t *testing.T) {
	last := func(n int, y uint64) func(uint64) uint64 {
		return func(x uint64) uint64 {
			if x == 1<<uint(n)-1 {
				return y
			}
			return x
		}
	}
	for _, c := range []struct {
		n    int
		perm func(uint64) uint64
		msg  string
	}{
		{6, last(6, 64), "dd: FromPermutation: perm(63) = 64 out of range"},
		{6, last(6, 1<<40), "dd: FromPermutation: perm(63) = 1099511627776 out of range"},
		{6, last(6, 0), "dd: FromPermutation: perm is not injective (image 0 repeated)"},
		{6, last(6, 62), "dd: FromPermutation: perm is not injective (image 62 repeated)"},
		{-1, nil, "dd: FromPermutation: qubit count -1 out of supported range"},
		{25, nil, "dd: FromPermutation: qubit count 25 out of supported range"},
	} {
		e := dd.New()
		e.Identity(8)
		before := e.Stats().NodesCreated
		func() {
			defer func() {
				if r := recover(); r != c.msg {
					t.Errorf("n=%d: recovered %v, want panic %q", c.n, r, c.msg)
				}
			}()
			e.FromPermutation(c.n, c.perm)
		}()
		if d := e.Stats().NodesCreated - before; d != 0 {
			t.Errorf("%q: %d nodes created before the panic", c.msg, d)
		}
	}
}

// TestFromPermutationAllocsIndependentOfN guards against per-entry
// allocations or a map: a warm rebuild allocates the same number of
// buffers at n = 8 as at n = 12.
func TestFromPermutationAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		e := dd.New()
		p := rand.New(rand.NewSource(int64(n))).Perm(1 << uint(n))
		perm := func(x uint64) uint64 { return uint64(p[x]) }
		e.FromPermutation(n, perm)
		return testing.AllocsPerRun(5, func() { e.FromPermutation(n, perm) })
	}
	if a8, a12 := allocs(8), allocs(12); a8 != a12 {
		t.Fatalf("warm FromPermutation allocates %v times at n=8 but %v at n=12", a8, a12)
	}
}

// BenchmarkFromPermutation rebuilds the factor-17 oracle mod 1851
// (n = 11) of the DD-construct Shor run on a warm engine.
func BenchmarkFromPermutation(b *testing.B) {
	e := dd.New()
	perm := shor.MultiplyPermutation(11, 17, 1851)
	e.FromPermutation(11, perm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FromPermutation(11, perm)
	}
}
