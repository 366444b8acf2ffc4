package dd

// Open-addressing unique tables. The Go-map tables of the seed
// implementation hashed a struct of four complex128s on every lookup
// and re-built the whole map on garbage collection; these tables probe
// a flat power-of-two slot array with linear probing, compare keys
// against the node fields directly (children are canonical pointers,
// weights canonical representatives, so == is exact), and unlink dead
// entries in place via tombstones.
//
// Invariants:
//   - len(slots) is a power of two, ≥ 1<<tableInitBits.
//   - live + dead ≤ loadNum/loadDen of capacity after every insert
//     (rehash restores it), so probe chains stay short and a nil slot
//     is always reachable.
//   - a node's slot position is derived from node.hash, which is fixed
//     at creation; rehashing never recomputes key hashes.

const (
	tableInitBits = 10 // 1024 slots ≈ 8 KiB per empty table
	// Rehash when (live+dead)*loadDen ≥ cap*loadNum, i.e. at 3/4 load.
	loadNum = 3
	loadDen = 4
)

// Tombstones are sentinel nodes distinguishable from both nil and any
// real node; their fields are never read.
var (
	vTombstone = &VNode{V: -2}
	mTombstone = &MNode{V: -2}
)

type vTable struct {
	slots []*VNode
	live  int // real entries
	dead  int // tombstones
	// levels[v] counts the live nodes at variable v — the per-level
	// index dynamic reordering reads (sifting orders variables by
	// occupancy, swaps touch only the two affected levels' counts).
	// Maintained by insertAt/sweep; grows only when a new topmost
	// level first appears, so the steady state stays allocation-free.
	levels []int
}

type mTable struct {
	slots  []*MNode
	live   int
	dead   int
	levels []int
}

// noteLevel adjusts the live count of level v by d, growing the index
// on first sight of a new level.
func (t *vTable) noteLevel(v int32, d int) {
	if int(v) >= len(t.levels) {
		grown := make([]int, int(v)+9)
		copy(grown, t.levels)
		t.levels = grown
	}
	t.levels[v] += d
}

func (t *mTable) noteLevel(v int32, d int) {
	if int(v) >= len(t.levels) {
		grown := make([]int, int(v)+9)
		copy(grown, t.levels)
		t.levels = grown
	}
	t.levels[v] += d
}

// levelCount returns the live-node count at level v.
func (t *vTable) levelCount(v int) int {
	if v < 0 || v >= len(t.levels) {
		return 0
	}
	return t.levels[v]
}

func (t *mTable) levelCount(v int) int {
	if v < 0 || v >= len(t.levels) {
		return 0
	}
	return t.levels[v]
}

func newVTable() vTable { return vTable{slots: make([]*VNode, 1<<tableInitBits)} }
func newMTable() mTable { return mTable{slots: make([]*MNode, 1<<tableInitBits)} }

// find probes for a node with the given key. It returns the node if
// present, else nil plus the slot index where the key should be
// inserted (the first tombstone on the probe path, or the terminating
// nil slot).
func (t *vTable) find(h uint32, v int32, e0, e1 VEdge) (*VNode, int) {
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	ins := -1
	for {
		s := t.slots[i]
		if s == nil {
			if ins < 0 {
				ins = int(i)
			}
			return nil, ins
		}
		if s == vTombstone {
			if ins < 0 {
				ins = int(i)
			}
		} else if s.hash == h && s.V == v && s.E[0] == e0 && s.E[1] == e1 {
			return s, int(i)
		}
		i = (i + 1) & mask
	}
}

func (t *mTable) find(h uint32, v int32, es *[4]MEdge) (*MNode, int) {
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	ins := -1
	for {
		s := t.slots[i]
		if s == nil {
			if ins < 0 {
				ins = int(i)
			}
			return nil, ins
		}
		if s == mTombstone {
			if ins < 0 {
				ins = int(i)
			}
		} else if s.hash == h && s.V == v && s.E == *es {
			return s, int(i)
		}
		i = (i + 1) & mask
	}
}

// insertAt places n into the slot returned by a preceding find and
// rehashes if the load factor is exceeded. Growth doubles capacity only
// when the table is genuinely full of live entries; a table bloated by
// tombstones (after GC) is compacted at the same capacity instead.
func (t *vTable) insertAt(slot int, n *VNode) {
	if t.slots[slot] == vTombstone {
		t.dead--
	}
	t.slots[slot] = n
	t.live++
	t.noteLevel(n.V, 1)
	if (t.live+t.dead)*loadDen >= len(t.slots)*loadNum {
		t.rehash()
	}
}

func (t *mTable) insertAt(slot int, n *MNode) {
	if t.slots[slot] == mTombstone {
		t.dead--
	}
	t.slots[slot] = n
	t.live++
	t.noteLevel(n.V, 1)
	if (t.live+t.dead)*loadDen >= len(t.slots)*loadNum {
		t.rehash()
	}
}

func (t *vTable) rehash() {
	// Double only when at least half the slots hold live nodes;
	// otherwise the table is mostly tombstones and compacting at the
	// same capacity restores a ≤1/2 load.
	newCap := len(t.slots)
	if t.live*2 >= newCap {
		newCap *= 2
	}
	ns := make([]*VNode, newCap)
	mask := uint32(newCap - 1)
	for _, s := range t.slots {
		if s == nil || s == vTombstone {
			continue
		}
		i := s.hash & mask
		for ns[i] != nil {
			i = (i + 1) & mask
		}
		ns[i] = s
	}
	t.slots = ns
	t.dead = 0
}

func (t *mTable) rehash() {
	newCap := len(t.slots)
	if t.live*2 >= newCap {
		newCap *= 2
	}
	ns := make([]*MNode, newCap)
	mask := uint32(newCap - 1)
	for _, s := range t.slots {
		if s == nil || s == mTombstone {
			continue
		}
		i := s.hash & mask
		for ns[i] != nil {
			i = (i + 1) & mask
		}
		ns[i] = s
	}
	t.slots = ns
	t.dead = 0
}

// sweep unlinks every entry whose node is not marked with the given
// epoch, releasing it into the arena, and returns the number of nodes
// freed. Slots become tombstones in place — surviving entries keep
// their positions, so no rebuild happens; the tombstones are compacted
// away by the next load-triggered rehash.
func (t *vTable) sweep(epoch uint32, a *vArena) int {
	freed := 0
	for i, s := range t.slots {
		if s == nil || s == vTombstone {
			continue
		}
		if s.mark != epoch {
			t.slots[i] = vTombstone
			t.live--
			t.noteLevel(s.V, -1)
			t.dead++
			freed++
			a.release(s)
		}
	}
	return freed
}

func (t *mTable) sweep(epoch uint32, m *mArena) int {
	freed := 0
	for i, s := range t.slots {
		if s == nil || s == mTombstone {
			continue
		}
		if s.mark != epoch {
			t.slots[i] = mTombstone
			t.live--
			t.noteLevel(s.V, -1)
			t.dead++
			freed++
			m.release(s)
		}
	}
	return freed
}

// forEach visits every live node (used by diagnostics and the epoch
// wrap-around reset).
func (t *vTable) forEach(f func(*VNode)) {
	for _, s := range t.slots {
		if s != nil && s != vTombstone {
			f(s)
		}
	}
}

func (t *mTable) forEach(f func(*MNode)) {
	for _, s := range t.slots {
		if s != nil && s != mTombstone {
			f(s)
		}
	}
}
