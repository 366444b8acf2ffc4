package dd

import "math"

// Open-addressing unique tables. The Go-map tables of the seed
// implementation hashed a struct of four complex128s on every lookup
// and re-built the whole map on garbage collection; these tables probe
// a flat power-of-two slot array with linear probing and unlink dead
// entries in place via tombstones.
//
// A slot holds no pointer: it is the node's key hash plus its arena
// index (see arena.go), 8 bytes. A probe compares the stored hash and
// dereferences a node only when the hash matches, then compares the key
// against the node fields directly (children are canonical pointers,
// weights canonical representatives, so == is exact). Rehashing
// re-places slots from their stored hashes without touching a node.
// Vector and matrix tables share the slot type and everything but the
// key comparison and the arena a sweep releases into.
//
// Invariants:
//   - len(slots) is a power of two, ≥ 1<<tableInitBits.
//   - live + dead ≤ loadNum/loadDen of capacity after every insert
//     (rehash restores it), so probe chains stay short and an empty
//     slot is always reachable.
//   - a slot's position is derived from its stored hash, the node's key
//     hash computed once at creation; the slot is the only copy.

const (
	tableInitBits = 10 // 1024 slots = 8 KiB per empty table
	// Rehash when (live+dead)*loadDen ≥ cap*loadNum, i.e. at 3/4 load.
	loadNum = 3
	loadDen = 4
)

// slot is one unique-table entry: the node's key hash and ref, its
// arena index plus one. ref reserves slotEmpty and slotTomb; an arena
// index never reaches slotTomb−1, because every arena node took a
// fresh node id and ids stop below math.MaxUint32 (issueID).
type slot struct {
	hash uint32
	ref  uint32
}

const (
	slotEmpty = 0
	slotTomb  = math.MaxUint32
)

type uniqueTable struct {
	slots []slot
	live  int // real entries
	dead  int // tombstones
	// levels[v] counts the live nodes at variable v — the per-level
	// index dynamic reordering reads (sifting orders variables by
	// occupancy, swaps touch only the two affected levels' counts).
	// Maintained by insertAt/sweep; grows only when a new topmost
	// level first appears, so the steady state stays allocation-free.
	levels []int
}

func newUniqueTable() uniqueTable { return uniqueTable{slots: make([]slot, 1<<tableInitBits)} }

// noteLevel adjusts the live count of level v by d, growing the index
// on first sight of a new level.
func (t *uniqueTable) noteLevel(v int32, d int) {
	if int(v) >= len(t.levels) {
		grown := make([]int, int(v)+9)
		copy(grown, t.levels)
		t.levels = grown
	}
	t.levels[v] += d
}

// levelCount returns the live-node count at level v.
func (t *uniqueTable) levelCount(v int) int {
	if v < 0 || v >= len(t.levels) {
		return 0
	}
	return t.levels[v]
}

// findV probes for a vector node with the given key. It returns the
// node if present, else nil plus the slot index where the key should be
// inserted (the first tombstone on the probe path, or the terminating
// empty slot).
func (t *uniqueTable) findV(a *vArena, h uint32, v int32, e0, e1 VEdge) (*VNode, int) {
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	ins := -1
	for {
		s := t.slots[i]
		switch {
		case s.ref == slotEmpty:
			if ins < 0 {
				ins = int(i)
			}
			return nil, ins
		case s.ref == slotTomb:
			if ins < 0 {
				ins = int(i)
			}
		case s.hash == h:
			if n := a.at(s.ref - 1); n.V == v && n.E[0] == e0 && n.E[1] == e1 {
				return n, int(i)
			}
		}
		i = (i + 1) & mask
	}
}

// findM is findV for matrix nodes.
func (t *uniqueTable) findM(a *mArena, h uint32, v int32, es *[4]MEdge) (*MNode, int) {
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	ins := -1
	for {
		s := t.slots[i]
		switch {
		case s.ref == slotEmpty:
			if ins < 0 {
				ins = int(i)
			}
			return nil, ins
		case s.ref == slotTomb:
			if ins < 0 {
				ins = int(i)
			}
		case s.hash == h:
			if n := a.at(s.ref - 1); n.V == v && n.E == *es {
				return n, int(i)
			}
		}
		i = (i + 1) & mask
	}
}

// insertAt fills the slot returned by a preceding find with the node
// at arena index idx, of key hash h and variable v, and rehashes if the
// load factor is exceeded.
func (t *uniqueTable) insertAt(i int, h, idx uint32, v int32) {
	if t.slots[i].ref == slotTomb {
		t.dead--
	}
	t.slots[i] = slot{hash: h, ref: idx + 1}
	t.live++
	t.noteLevel(v, 1)
	if (t.live+t.dead)*loadDen >= len(t.slots)*loadNum {
		t.rehash()
	}
}

// rehash re-places every live slot from its stored hash. It doubles
// capacity only when at least half the slots hold live entries;
// otherwise the table is mostly tombstones (after GC), and compacting
// at the same capacity restores a ≤1/2 load.
func (t *uniqueTable) rehash() {
	newCap := len(t.slots)
	if t.live*2 >= newCap {
		newCap *= 2
	}
	ns := make([]slot, newCap)
	mask := uint32(newCap - 1)
	for _, s := range t.slots {
		if s.ref == slotEmpty || s.ref == slotTomb {
			continue
		}
		i := s.hash & mask
		for ns[i].ref != slotEmpty {
			i = (i + 1) & mask
		}
		ns[i] = s
	}
	t.slots = ns
	t.dead = 0
}

// tombstone unlinks the live entry in slot i, of a node at variable v.
func (t *uniqueTable) tombstone(i int, v int32) {
	t.slots[i] = slot{ref: slotTomb}
	t.live--
	t.dead++
	t.noteLevel(v, -1)
}

// sweepV unlinks every entry whose node is not marked with the given
// epoch, releasing it into the arena, and returns the number of nodes
// freed. Slots become tombstones in place — surviving entries keep
// their positions, so no rebuild happens; the tombstones are compacted
// away by the next load-triggered rehash.
func (t *uniqueTable) sweepV(epoch uint32, a *vArena) int {
	freed := 0
	for i, s := range t.slots {
		if s.ref == slotEmpty || s.ref == slotTomb {
			continue
		}
		if n := a.at(s.ref - 1); n.mark != epoch {
			t.tombstone(i, n.V)
			a.release(n)
			freed++
		}
	}
	return freed
}

// sweepM is sweepV for matrix nodes.
func (t *uniqueTable) sweepM(epoch uint32, a *mArena) int {
	freed := 0
	for i, s := range t.slots {
		if s.ref == slotEmpty || s.ref == slotTomb {
			continue
		}
		if n := a.at(s.ref - 1); n.mark != epoch {
			t.tombstone(i, n.V)
			a.release(n)
			freed++
		}
	}
	return freed
}
