package dd

// RefFromPermutation is the earlier FromPermutation, kept as the
// reference the direct builder is compared against: one single-entry DD
// |perm(x)><x| per column, summed pairwise with AddM over a balanced
// split of the column range. perm must be a bijection on [0, 2^n).
func (e *Engine) RefFromPermutation(n int, perm func(uint64) uint64) MEdge {
	var build func(lo, hi uint64) MEdge
	build = func(lo, hi uint64) MEdge {
		if hi-lo == 1 {
			return e.singleEntry(n, perm(lo), lo)
		}
		mid := lo + (hi-lo)/2
		return e.AddM(build(lo, mid), build(mid, hi))
	}
	return build(0, uint64(1)<<uint(n))
}

// singleEntry builds the matrix DD with a single 1 at (row, col).
func (e *Engine) singleEntry(n int, row, col uint64) MEdge {
	m := MOne()
	for q := 0; q < n; q++ {
		idx := 2*int(row>>uint(q)&1) + int(col>>uint(q)&1)
		var es [4]MEdge
		for i := range es {
			es[i] = MZero()
		}
		es[idx] = m
		m = e.makeMNode(int32(q), es)
	}
	return m
}

// AllocatedTables names the compute caches, query memos and gate memo
// the engine holds, in declaration order.
func (e *Engine) AllocatedTables() []string {
	var out []string
	for _, t := range []struct {
		name string
		ok   bool
	}{
		{"add-v", e.addVTab != nil},
		{"add-m", e.addMTab != nil},
		{"mul-mv", e.mulMVTab != nil},
		{"mul-mm", e.mulMMTab != nil},
		{"inner-product", e.ipTab != nil},
		{"trace", e.trTab != nil},
		{"projection", e.projTab != nil},
		{"adjoint", e.ctTab != nil},
		{"gate", e.gateTab != nil},
	} {
		if t.ok {
			out = append(out, t.name)
		}
	}
	return out
}

// SetCacheGen sets the cache generation, so that the next collection
// takes clearCaches' wrap-around branch when g is math.MaxUint32.
func (e *Engine) SetCacheGen(g uint32) { e.cacheGen = g }
