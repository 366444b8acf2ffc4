package dd

// Chunked node arenas. Nodes are allocated out of fixed-size chunks
// owned by the engine instead of individually on the Go heap, and dead
// nodes are recycled through an intrusive free list (threaded through
// E[0].N, which is meaningless on a dead node). Chunks are never
// returned to the runtime while the engine lives, so node pointers stay
// valid for the engine's lifetime and the Go GC never has to trace or
// sweep individual nodes.
//
// A chunk's backing array is allocated at full capacity up front and
// only ever sliced longer, never re-allocated — appending must not move
// nodes that are already referenced.

// arenaChunkSize is the number of nodes per chunk. 2048 VNodes ≈ 128 KiB
// and 2048 MNodes ≈ 224 KiB: big enough to amortise allocation, small
// enough that tiny engines (tests build thousands of them) stay cheap.
// The first chunk of each arena, like every compute cache and memo, is
// allocated on first use, so an empty engine holds only its two 8 KiB
// unique tables.
const arenaChunkSize = 2048

type vArena struct {
	chunks [][]VNode
	free   *VNode // free list, linked through E[0].N
	nfree  int
}

type mArena struct {
	chunks [][]MNode
	free   *MNode
	nfree  int
}

// alloc returns a zeroed node, recycling the free list first.
func (a *vArena) alloc() *VNode {
	if n := a.free; n != nil {
		a.free = n.E[0].N
		a.nfree--
		n.E[0].N = nil
		return n
	}
	if len(a.chunks) == 0 || len(a.chunks[len(a.chunks)-1]) == arenaChunkSize {
		a.chunks = append(a.chunks, make([]VNode, 0, arenaChunkSize))
	}
	c := &a.chunks[len(a.chunks)-1]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

func (m *mArena) alloc() *MNode {
	if n := m.free; n != nil {
		m.free = n.E[0].N
		m.nfree--
		n.E[0].N = nil
		return n
	}
	if len(m.chunks) == 0 || len(m.chunks[len(m.chunks)-1]) == arenaChunkSize {
		m.chunks = append(m.chunks, make([]MNode, 0, arenaChunkSize))
	}
	c := &m.chunks[len(m.chunks)-1]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

// release puts a dead node on the free list. The mark is zeroed here so
// a recycled node can never carry a stale epoch mark into a fresh
// traversal (epoch values start at 1, so 0 never matches).
func (a *vArena) release(n *VNode) {
	*n = VNode{E: [2]VEdge{{N: a.free}, {}}}
	a.free = n
	a.nfree++
}

func (m *mArena) release(n *MNode) {
	*n = MNode{E: [4]MEdge{{N: m.free}, {}, {}, {}}}
	m.free = n
	m.nfree++
}

// resetMarks zeroes the traversal mark of every node the arena has ever
// handed out — live, dead, or free-listed. Called on the (astronomically
// rare) epoch wrap-around so no node anywhere can alias a fresh epoch.
func (a *vArena) resetMarks() {
	for _, c := range a.chunks {
		for i := range c {
			c[i].mark = 0
		}
	}
}

func (m *mArena) resetMarks() {
	for _, c := range m.chunks {
		for i := range c {
			c[i].mark = 0
		}
	}
}
