package dd

// Chunked node arenas. Nodes are allocated out of fixed-size chunks
// owned by the engine instead of individually on the Go heap, and dead
// nodes are recycled through an intrusive free list (threaded through
// E[0].N, which is meaningless on a dead node). Chunks are never
// returned to the runtime while the engine lives, so node pointers stay
// valid for the engine's lifetime. The Go collector still scans every
// chunk it reaches — nodes hold child pointers — but it allocates and
// frees chunks, not individual nodes.
//
// Every node has a fixed arena index, the position it was first handed
// out at (chunk = idx >> arenaChunkBits), stored in the node's idx
// field and kept across recycling. Unique-table slots refer to nodes by
// this index, which keeps the tables pointer-free (see table.go).

// arenaChunkSize is the number of nodes per chunk. 2048 VNodes = 128 KiB
// and 2048 MNodes = 240 KiB: big enough to amortise allocation, small
// enough that tiny engines (tests build thousands of them) stay cheap.
// The first chunk of each arena, like every compute cache and memo, is
// allocated on first use, so an empty engine holds only its two 8 KiB
// unique tables.
const (
	arenaChunkBits = 11
	arenaChunkSize = 1 << arenaChunkBits
)

type vArena struct {
	chunks []*[arenaChunkSize]VNode
	n      uint32 // nodes handed out: the next fresh index
	free   *VNode // free list, linked through E[0].N
	nfree  int
}

type mArena struct {
	chunks []*[arenaChunkSize]MNode
	n      uint32
	free   *MNode
	nfree  int
}

// at returns the node at arena index i.
func (a *vArena) at(i uint32) *VNode {
	return &a.chunks[i>>arenaChunkBits][i&(arenaChunkSize-1)]
}

func (m *mArena) at(i uint32) *MNode {
	return &m.chunks[i>>arenaChunkBits][i&(arenaChunkSize-1)]
}

// alloc returns a node whose fields are zero apart from its arena
// index, recycling the free list first.
func (a *vArena) alloc() *VNode {
	if n := a.free; n != nil {
		a.free = n.E[0].N
		a.nfree--
		n.E[0].N = nil
		return n
	}
	i := a.n
	if i&(arenaChunkSize-1) == 0 {
		a.chunks = append(a.chunks, new([arenaChunkSize]VNode))
	}
	a.n++
	n := a.at(i)
	n.idx = i
	return n
}

func (m *mArena) alloc() *MNode {
	if n := m.free; n != nil {
		m.free = n.E[0].N
		m.nfree--
		n.E[0].N = nil
		return n
	}
	i := m.n
	if i&(arenaChunkSize-1) == 0 {
		m.chunks = append(m.chunks, new([arenaChunkSize]MNode))
	}
	m.n++
	n := m.at(i)
	n.idx = i
	return n
}

// release puts a dead node on the free list, keeping its arena index.
// The mark is zeroed here so a recycled node can never carry a stale
// epoch mark into a fresh traversal (epoch values start at 1, so 0
// never matches).
func (a *vArena) release(n *VNode) {
	*n = VNode{E: [2]VEdge{{N: a.free}, {}}, idx: n.idx}
	a.free = n
	a.nfree++
}

func (m *mArena) release(n *MNode) {
	*n = MNode{E: [4]MEdge{{N: m.free}, {}, {}, {}}, idx: n.idx}
	m.free = n
	m.nfree++
}

// resetMarks zeroes the traversal mark of every node the arena has ever
// handed out — live, dead, or free-listed. Called on the (astronomically
// rare) epoch wrap-around so no node anywhere can alias a fresh epoch.
func (a *vArena) resetMarks() {
	for i := uint32(0); i < a.n; i++ {
		a.at(i).mark = 0
	}
}

func (m *mArena) resetMarks() {
	for i := uint32(0); i < m.n; i++ {
		m.at(i).mark = 0
	}
}
