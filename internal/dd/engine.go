package dd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cnum"
)

// Engine owns the unique tables, node arenas, compute caches and the
// complex-value table of one simulation. Diagrams from different
// engines must not be mixed. An Engine is not safe for concurrent use.
//
// Memory layout (see DESIGN.md, "Engine memory layout"): nodes are
// allocated from chunked arenas and indexed by open-addressing unique
// tables whose pointer-free slots hold a node's key hash and arena
// index; compute caches are direct-mapped arrays, allocated small on
// their first probe and doubled on conflict misses, whose entries carry
// a generation stamp, so post-GC invalidation is a single counter
// increment instead of a table wipe.
type Engine struct {
	weights cnum.Table

	vUnique uniqueTable
	mUnique uniqueTable
	vArena  vArena
	mArena  mArena
	nextID  uint32

	// Identity diagrams by span: identity[k] covers variables 0..k-1.
	identity []MEdge

	addVTab  cacheTable[addVSlot]
	addMTab  cacheTable[addMSlot]
	mulMVTab cacheTable[mulMVSlot]
	mulMMTab cacheTable[mulMMSlot]
	// Scratch memo tables for the query operations (inner products,
	// traces, projections, conjugate transposes); same generation scheme
	// as the caches.
	ipTab   []ipSlot
	trTab   []trSlot
	projTab []projSlot
	ctTab   []ctSlot

	// cacheGen stamps valid cache/scratch entries; clearCaches bumps it
	// so every stale entry expires at once. projGen is bumped per
	// Project call since projections memoise call-local results.
	cacheGen uint32
	projGen  uint32

	// ctlBuf is GateDD's per-qubit control scratch, reused across calls.
	ctlBuf []ctlKind

	// gateTab memoises gate DDs under the cache generation (see
	// gateSlot). foreign counts weight lookups that returned a
	// representative other than their query, which GateDD reads to
	// decide whether a build may be memoised.
	gateTab []gateSlot
	foreign uint64

	// noIdentitySkip disables the identity short-circuits in the
	// multiplication kernels (see arith.go). The zero value — skipping
	// enabled — is the production configuration; differential suites
	// disable it to prove the optimised kernels are pointer-identical to
	// the plain recursion.
	noIdentitySkip bool

	// Cooperative abort layer (see abort.go). armed caches whether any
	// source below is live so the kernel probes cost one branch when
	// nothing is armed; probes counts probe invocations while armed.
	// done caches ctx.Done() for the sampled non-blocking receive.
	ctx          context.Context
	done         <-chan struct{}
	budget       int
	injectAt     uint64
	injectReason AbortReason
	probes       uint64
	armed        bool

	// Memory-pressure signal (see pressure.go). wmLow/wmHigh/wmCrit are
	// absolute live-node thresholds precomputed from the watermark
	// fractions; injectLevel is the chaos override.
	softBudget  int
	wmLow       int
	wmHigh      int
	wmCrit      int
	injectLevel PressureLevel

	// epoch stamps node marks during SizeV/SizeM traversals and GC
	// marking, so repeated traversals need no per-call visited set.
	epoch uint32

	// obs, when non-nil, receives instrumentation callbacks; see
	// instrument.go. Hot paths guard every call with a nil check.
	obs EngineObserver

	stats Stats
}

// bumpEpoch advances the traversal epoch. On the (astronomically rare)
// wrap-around every mark in both arenas — including free-listed nodes
// that might later be recycled — is cleared so stale marks can never
// alias a fresh epoch.
func (e *Engine) bumpEpoch() {
	if e.epoch == math.MaxUint32 {
		e.vArena.resetMarks()
		e.mArena.resetMarks()
		e.epoch = 0
	}
	e.epoch++
}

// SizeV counts the distinct non-terminal nodes under e using the
// engine's traversal epoch — allocation-free, unlike VEdge.Size.
// Only valid for diagrams owned by this engine.
func (e *Engine) SizeV(v VEdge) int {
	e.bumpEpoch()
	return e.sizeV(v.N)
}

func (e *Engine) sizeV(n *VNode) int {
	if n == vTerminal || n.mark == e.epoch {
		return 0
	}
	n.mark = e.epoch
	return 1 + e.sizeV(n.E[0].N) + e.sizeV(n.E[1].N)
}

// SizeM counts the distinct non-terminal nodes under e; see SizeV.
func (e *Engine) SizeM(m MEdge) int {
	e.bumpEpoch()
	return e.sizeM(m.N)
}

func (e *Engine) sizeM(n *MNode) int {
	if n == mTerminal || n.mark == e.epoch {
		return 0
	}
	n.mark = e.epoch
	s := 1
	for i := range n.E {
		s += e.sizeM(n.E[i].N)
	}
	return s
}

// CacheStats counts lookups and hits of one compute cache.
type CacheStats struct {
	Lookups uint64
	Hits    uint64
}

// HitRate returns Hits/Lookups (0 when the cache was never consulted).
func (c CacheStats) HitRate() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Lookups)
}

// Stats accumulates operation counters of an Engine. The multiplication
// counters are the quantities the paper trades against each other.
// Every numeric field has exactly one row in the counter table
// (Counters).
type Stats struct {
	MatVecMuls    uint64 // top-level matrix-vector multiplications
	MatMatMuls    uint64 // top-level matrix-matrix multiplications
	AddRecursions uint64
	MulRecursions uint64

	// Identity short-circuits taken by the multiplication kernels (see
	// arith.go): IdentitySkipsMV counts mulVec calls answered as I·v = v,
	// IdentitySkipsMM counts mulMat calls answered as I·b = b or a·I = a.
	// IdentitySkipLevels accumulates the spans (levels) of the skipped
	// identity sub-diagrams — the recursion depth the skips avoided — so
	// skips near the root weigh more than skips near the terminal.
	IdentitySkipsMV    uint64
	IdentitySkipsMM    uint64
	IdentitySkipLevels uint64

	// CacheHits and CacheLookups aggregate the four per-cache counters
	// below; Stats() fills them in for snapshot consumers.
	CacheHits    uint64
	CacheLookups uint64
	// Per-cache counters: vector addition, matrix addition,
	// matrix-vector and matrix-matrix multiplication.
	AddV  CacheStats
	AddM  CacheStats
	MulMV CacheStats
	MulMM CacheStats

	// GateLookups counts GateDD calls that probed the gate memo and
	// GateHits those it answered without building. WeightHits and
	// WeightMisses count weight-table lookups that found an existing
	// representative or registered a new one (exact zero and one
	// short-circuits count in neither); Stats() fills them in.
	GateLookups  uint64
	GateHits     uint64
	WeightHits   uint64
	WeightMisses uint64

	NodesCreated  uint64
	NodesRecycled uint64 // dead nodes returned to the arena free lists by GC

	GCs        uint64
	GCPause    time.Duration // cumulative time spent inside GarbageCollect
	GCMaxPause time.Duration // longest single collection

	// Aborts counts cooperative aborts raised by the abort layer
	// (deadline, cancellation, budget or fault injection; see abort.go).
	Aborts uint64

	// ReorderSwaps counts adjacent level swaps performed by the dynamic
	// reordering layer (see reorder.go); SiftPasses counts variables
	// sifted (one pass moves one variable through all positions).
	ReorderSwaps uint64
	SiftPasses   uint64

	PeakVNodes     int
	PeakMNodes     int
	PeakVectorSize int // largest state-vector DD observed via NoteVectorSize
	PeakMatrixSize int // largest operation DD observed via NoteMatrixSize
}

// MemStats describes the occupancy of the engine's memory layer.
type MemStats struct {
	VLive, MLive             int // live nodes in the unique tables
	VCapacity, MCapacity     int // open-addressing slots allocated
	VTombstones, MTombstones int // deleted slots awaiting compaction
	VFree, MFree             int // recycled nodes on the arena free lists
	VChunks, MChunks         int // arena chunks allocated

	// Current slot counts of the four compute tables; 0 for a table
	// the engine has never probed.
	AddVSlots, AddMSlots, MulMVSlots, MulMMSlots int
}

// Compute-cache geometry: direct-mapped tables with
// overwrite-on-collision, the scheme used by the JKU package, with
// power-of-two sizes for cheap masking. Each of the four arithmetic
// tables starts at cacheFloor slots on its first probe and doubles, up
// to cacheCap, on conflict misses (see cacheTable.conflict). At the
// floor an add table takes 448 KiB and a mul table 320 KiB; at the cap
// 56 MiB and 40 MiB. The four query memos take 2.25 MiB together and
// the gate memo 128 KiB, each allocated at its full size on its first
// probe (see lazy). The bounds are variables only so that tests can
// pin them.
var (
	cacheFloor = 1 << 13
	cacheCap   = 1 << 20
)

const (
	// The query scratch tables (inner product, trace, projection) see
	// far fewer distinct keys per operation than the arithmetic caches.
	scratchBits = 14
	scratchSize = 1 << scratchBits
	scratchMask = scratchSize - 1
)

// cacheEntry is a compute-cache slot type: stamp returns its
// generation stamp and hash the full hash of its key, which a doubling
// re-masks.
type cacheEntry interface {
	stamp() uint32
	hash() uint32
}

// cacheTable is one arithmetic compute cache. Each slot also records
// in ev the full hash of the entry its last store evicted (the
// complement of its own key's hash when it evicted nothing), so a miss
// can tell a conflict — a key this slot held earlier in the generation,
// which a table twice the size would probably still hold — from a cold
// miss.
type cacheTable[S cacheEntry] struct {
	slots     []S
	conflicts int // conflict misses since the last resize
}

// at returns the slot for hash h, allocating the table at cacheFloor
// slots on its first probe. A nil table is all misses, so an engine
// pays only for the tables its operations probe. A probe site calls at
// again before its store, because the recursion between its lookup
// and its store may have grown the table.
func (t *cacheTable[S]) at(h uint32) *S {
	if t.slots == nil {
		t.slots = make([]S, cacheFloor)
	}
	return &t.slots[h&uint32(len(t.slots)-1)]
}

// conflict counts one conflict miss. Once they exceed an eighth of the
// slots since the last resize, the table doubles (up to cacheCap) and
// every entry of generation gen moves to its new index; two entries
// never collide there, their old indices being the low bits of the new.
func (t *cacheTable[S]) conflict(gen uint32) {
	t.conflicts++
	if t.conflicts <= len(t.slots)/8 || len(t.slots) >= cacheCap {
		return
	}
	old := t.slots
	t.slots = make([]S, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.stamp() == gen {
			t.slots[s.hash()&mask] = s
		}
	}
	t.conflicts = 0
}

// addVSlot and addMSlot memoise x + q·y. The index hashes the node ids
// with q's quantisation cell, and a hit needs the same ids and a stored
// ratio within cnum.Tol of q (see addV); q itself stays raw.
type addVSlot struct {
	x, y    uint32
	q       complex128
	r       VEdge
	gen, ev uint32
}

type addMSlot struct {
	x, y    uint32
	q       complex128
	r       MEdge
	gen, ev uint32
}

type mulMVSlot struct {
	m, v    uint32
	r       VEdge
	gen, ev uint32
}

type mulMMSlot struct {
	a, b    uint32
	r       MEdge
	gen, ev uint32
}

// addHash is the add caches' key hash: the operand node ids mixed with
// the quantisation cell of the ratio q.
func addHash(x, y uint32, q complex128) uint32 { return mixKey(mix(x, y), cnum.KeyOf(q)) }

func (s addVSlot) stamp() uint32  { return s.gen }
func (s addVSlot) hash() uint32   { return addHash(s.x, s.y, s.q) }
func (s addMSlot) stamp() uint32  { return s.gen }
func (s addMSlot) hash() uint32   { return addHash(s.x, s.y, s.q) }
func (s mulMVSlot) stamp() uint32 { return s.gen }
func (s mulMVSlot) hash() uint32  { return mix(s.m, s.v) }
func (s mulMMSlot) stamp() uint32 { return s.gen }
func (s mulMMSlot) hash() uint32  { return mix(s.a, s.b) }

type ipSlot struct {
	aN, bN uint32
	val    complex128
	gen    uint32
}

type trSlot struct {
	n   uint32
	val complex128
	gen uint32
}

type projSlot struct {
	n   uint32
	r   VEdge
	gen uint32
}

type ctSlot struct {
	n   uint32
	r   MEdge
	gen uint32
}

// New returns an empty Engine ready for use.
func New() *Engine {
	return &Engine{
		vUnique:  newUniqueTable(),
		mUnique:  newUniqueTable(),
		nextID:   1,
		cacheGen: 1,
		projGen:  1,
	}
}

// lazy returns the fixed-size memo *t, allocating it with n zero slots
// on its first probe (see cacheTable.at). Each probe site fetches its
// memo once and uses that slice for both its lookup and its store.
func lazy[S any](t *[]S, n int) []S {
	if *t == nil {
		*t = make([]S, n)
	}
	return *t
}

// SetIdentitySkip enables or disables the identity short-circuits in
// the multiplication kernels. Skipping is on by default and changes no
// results — the short-circuits return the exact canonical edges the
// plain recursion would — so disabling it is only useful to measure the
// optimisation or to differential-test against the unoptimised kernels.
func (e *Engine) SetIdentitySkip(enabled bool) { e.noIdentitySkip = !enabled }

// IdentitySkipEnabled reports whether the multiplication kernels take
// the identity short-circuits.
func (e *Engine) IdentitySkipEnabled() bool { return !e.noIdentitySkip }

// Stats returns a snapshot of the engine's counters, with the aggregate
// cache fields derived from the per-cache ones and the weight-table
// counters read from the value table.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.CacheHits = s.AddV.Hits + s.AddM.Hits + s.MulMV.Hits + s.MulMM.Hits
	s.CacheLookups = s.AddV.Lookups + s.AddM.Lookups + s.MulMV.Lookups + s.MulMM.Lookups
	s.WeightHits, s.WeightMisses = e.weights.Stats()
	return s
}

// ResetStats zeroes all counters (table contents are preserved).
func (e *Engine) ResetStats() {
	e.stats = Stats{}
	e.weights.ResetStats()
}

// MemStats returns a snapshot of unique-table and arena occupancy.
func (e *Engine) MemStats() MemStats {
	return MemStats{
		VLive: e.vUnique.live, MLive: e.mUnique.live,
		VCapacity: len(e.vUnique.slots), MCapacity: len(e.mUnique.slots),
		VTombstones: e.vUnique.dead, MTombstones: e.mUnique.dead,
		VFree: e.vArena.nfree, MFree: e.mArena.nfree,
		VChunks: len(e.vArena.chunks), MChunks: len(e.mArena.chunks),
		AddVSlots: len(e.addVTab.slots), AddMSlots: len(e.addMTab.slots),
		MulMVSlots: len(e.mulMVTab.slots), MulMMSlots: len(e.mulMMTab.slots),
	}
}

// VNodeCount returns the number of live vector nodes in the unique table.
func (e *Engine) VNodeCount() int { return e.vUnique.live }

// MNodeCount returns the number of live matrix nodes in the unique table.
func (e *Engine) MNodeCount() int { return e.mUnique.live }

// VLevelCount returns the number of live vector nodes at DD level l —
// the per-level unique-table index maintained by insert and sweep.
// Note the count covers everything live in the table, including
// garbage not yet collected; sifting heuristics that want per-diagram
// occupancy should GC first or walk the diagram.
func (e *Engine) VLevelCount(l int) int { return e.vUnique.levelCount(l) }

// MLevelCount returns the number of live matrix nodes at DD level l.
func (e *Engine) MLevelCount(l int) int { return e.mUnique.levelCount(l) }

// NoteVectorSize records s as an observed state-vector DD size for the
// peak statistics.
func (e *Engine) NoteVectorSize(s int) {
	if s > e.stats.PeakVectorSize {
		e.stats.PeakVectorSize = s
	}
}

// NoteMatrixSize records s as an observed operation DD size for the peak
// statistics.
func (e *Engine) NoteMatrixSize(s int) {
	if s > e.stats.PeakMatrixSize {
		e.stats.PeakMatrixSize = s
	}
}

// Weight canonicalises a complex value through the engine's value table.
func (e *Engine) Weight(c complex128) complex128 { return e.weights.Lookup(c) }

// WeightTableSize returns the number of canonical complex representatives.
func (e *Engine) WeightTableSize() int { return e.weights.Size() }

// makeVNode hash-conses a vector node with the given children. The
// normalisation rule divides out the largest-magnitude edge weight
// (ties broken towards the lower index): stored weights then never
// exceed magnitude one, which bounds floating-point error growth —
// normalising by the *first* non-zero weight instead amplifies noise
// whenever that weight is tiny and destroys sharing over long runs.
//
// The children's weights may be raw kernel values; a weight within Tol
// of zero is the zero edge. Only the normalised weights the node stores
// are interned (normDiv); the returned top weight is the raw divisor,
// which the kernel carries on and canonV interns at the exported root.
func (e *Engine) makeVNode(v int32, e0, e1 VEdge) VEdge {
	if cnum.IsZero(e0.W) {
		e0 = VZero()
	}
	if cnum.IsZero(e1.W) {
		e1 = VZero()
	}
	if e0.W == cnum.Zero && e1.W == cnum.Zero {
		return VZero()
	}
	top := e0.W
	if magGreater(e1.W, top) {
		top = e1.W
	}
	e0.W = e.normDiv(e0.W, top)
	e1.W = e.normDiv(e1.W, top)
	h := hashVKey(v, e0, e1)
	hit, slot := e.vUnique.findV(&e.vArena, h, v, e0, e1)
	if hit != nil {
		return VEdge{W: top, N: hit}
	}
	// The miss slot stays valid: nothing below touches the table until
	// insertAt.
	id := e.issueID()
	n := e.vArena.alloc()
	n.E = [2]VEdge{e0, e1}
	n.V = v
	n.id = id
	e.stats.NodesCreated++
	e.vUnique.insertAt(slot, h, n.idx, v)
	if e.vUnique.live > e.stats.PeakVNodes {
		e.stats.PeakVNodes = e.vUnique.live
	}
	if e.obs != nil {
		e.obs.ObserveNode(false, e.vUnique.live+e.mUnique.live)
	}
	return VEdge{W: top, N: n}
}

// makeMNode hash-conses a matrix node; see makeVNode.
func (e *Engine) makeMNode(v int32, es [4]MEdge) MEdge {
	for i := range es {
		if cnum.IsZero(es[i].W) {
			es[i] = MZero()
		}
	}
	best := -1
	for i := range es {
		if es[i].W == cnum.Zero {
			continue
		}
		if best < 0 || magGreater(es[i].W, es[best].W) {
			best = i
		}
	}
	if best < 0 {
		return MZero()
	}
	top := es[best].W
	for i := range es {
		es[i].W = e.normDiv(es[i].W, top)
	}
	h := hashMKey(v, &es)
	hit, slot := e.mUnique.findM(&e.mArena, h, v, &es)
	if hit != nil {
		return MEdge{W: top, N: hit}
	}
	id := e.issueID()
	n := e.mArena.alloc()
	n.E = es
	n.V = v
	n.id = id
	// Normalisation makes the identity shape canonical — zero
	// off-diagonals, both diagonal weights exactly one, shared diagonal
	// child — so one O(1) comparison against the (already stamped) child
	// classifies the fresh node. Derived, hence excluded from the
	// unique-table key and hash; Audit's "identity-bit" check recomputes
	// it.
	n.isIdentity = es[1].W == cnum.Zero && es[2].W == cnum.Zero &&
		es[0].W == cnum.One && es[3].W == cnum.One &&
		es[0].N == es[3].N &&
		(es[0].N == mTerminal || es[0].N.isIdentity)
	e.stats.NodesCreated++
	e.mUnique.insertAt(slot, h, n.idx, v)
	if e.mUnique.live > e.stats.PeakMNodes {
		e.stats.PeakMNodes = e.mUnique.live
	}
	if e.obs != nil {
		e.obs.ObserveNode(true, e.vUnique.live+e.mUnique.live)
	}
	return MEdge{W: top, N: n}
}

// ErrNodeIDsExhausted is the panic value of a node construction on an
// engine that has issued every node id: 2^32−1 nodes over its lifetime,
// collected ones included. Ids key the unique tables and the compute
// caches, so a reissued id would let a stale cache entry answer for a
// new node. The engine cannot continue; a run resumes on a fresh one.
var ErrNodeIDsExhausted = errors.New("dd: node ids exhausted: the engine has created 2^32-1 nodes; continue on a fresh engine")

// issueID returns the next node id, or panics with ErrNodeIDsExhausted
// instead of wrapping to 0, the id reserved for the terminals.
func (e *Engine) issueID() uint32 {
	if e.nextID == math.MaxUint32 {
		panic(ErrNodeIDsExhausted)
	}
	id := e.nextID
	e.nextID++
	return id
}

// Identity returns the matrix DD of the identity on qubits 0..n-1.
func (e *Engine) Identity(n int) MEdge {
	if n < 0 {
		panic(fmt.Sprintf("dd: Identity(%d): negative qubit count", n))
	}
	for len(e.identity) <= n {
		k := len(e.identity)
		if k == 0 {
			e.identity = append(e.identity, MOne())
			continue
		}
		below := e.identity[k-1]
		e.identity = append(e.identity, e.makeMNode(int32(k-1), [4]MEdge{below, MZero(), MZero(), below}))
	}
	return e.identity[n]
}

// magRelTol is the relative squared-magnitude margin under which two
// edge weights count as equally large during normalisation; the tie
// then goes to the lower edge index so that nodes equal up to noise —
// or up to a common scalar factor — normalise identically.
const magRelTol = 1e-6

// magGreater reports whether |a| exceeds |b| by more than the relative
// tie margin.
func magGreater(a, b complex128) bool {
	return cnum.Abs2(a) > cnum.Abs2(b)*(1+magRelTol)
}

// normDiv divides an edge weight by the normalisation factor and
// canonicalises, mapping the selected edge to exactly one.
func (e *Engine) normDiv(w, top complex128) complex128 {
	if w == cnum.Zero {
		return cnum.Zero
	}
	if w == top {
		return cnum.One
	}
	q := w / top
	r := e.weights.Lookup(q)
	if r != q {
		e.foreign++
	}
	return r
}

// hashVKey hashes a normalised vector-node key (full 32 bits; callers
// mask). Stored in the unique-table slot so probes and rehashes never
// recompute it.
func hashVKey(v int32, e0, e1 VEdge) uint32 {
	h := uint32(v)*0x9e3779b1 ^ e0.N.id*0x85ebca77 ^ e1.N.id*0xc2b2ae3d
	h = foldW(h, e0.W)
	h = foldW(h, e1.W)
	return finish(h)
}

// hashMKey hashes a normalised matrix-node key.
func hashMKey(v int32, es *[4]MEdge) uint32 {
	h := uint32(v) * 0x9e3779b1
	for i := range es {
		h = (h ^ es[i].N.id) * 0x85ebca77
		h = foldW(h, es[i].W)
	}
	return finish(h)
}

// foldW folds a complex weight's bit pattern into a hash. The shift
// after each multiply matters: XOR-then-multiply alone is linear in the
// top bit ((x^1<<31)*K == x*K ^ 1<<31 for odd K), so two weights whose
// folded words differ only in bit 31 — e.g. +1 and -1 — could be
// swapped between edge positions without changing the final hash. The
// avalanche shift spreads bit 31 downward so position swaps of
// sign-flipped weights always perturb the hash.
func foldW(h uint32, w complex128) uint32 {
	rb := math.Float64bits(real(w))
	ib := math.Float64bits(imag(w))
	h = (h ^ uint32(rb) ^ uint32(rb>>32)) * 0x9e3779b1
	h ^= h >> 15
	h = (h ^ uint32(ib) ^ uint32(ib>>32)) * 0x85ebca77
	h ^= h >> 13
	return h
}

// finish is a murmur-style avalanche of the accumulated hash.
func finish(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}

// mix hashes two node ids into an unmasked cache hash.
func mix(a, b uint32) uint32 {
	h := a*0x9e3779b1 ^ b*0x85ebca77
	h ^= h >> 15
	h *= 0xc2b2ae3d
	h ^= h >> 13
	return h
}

// mixKey folds a weight's quantisation cell into a cache hash. Each
// component passes a multiply and a shift before the next one joins:
// XOR-ing the two products directly hashes the cells of q and −q alike
// whenever both cell coordinates are odd, and add ratios come in such
// pairs.
func mixKey(h uint32, k cnum.Key) uint32 {
	x := uint64(k.Re) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	x = (x ^ uint64(k.Im)) * 0xbf58476d1ce4e5b9
	x ^= x >> 32
	x = (x ^ uint64(h)) * 0x94d049bb133111eb
	x ^= x >> 32
	return uint32(x)
}

// clearCaches invalidates all compute caches, cross-call scratch memos
// and the gate memo in O(1) by advancing the generation stamp (after
// GC, node identities may be reused so stale entries must not survive).
// Collections keep the compute tables' sizes. Only on the rare counter
// wrap-around are the tables dropped; the next probe of each allocates
// it afresh, the arithmetic caches at cacheFloor.
func (e *Engine) clearCaches() {
	if e.cacheGen == math.MaxUint32 {
		e.addVTab, e.addMTab = cacheTable[addVSlot]{}, cacheTable[addMSlot]{}
		e.mulMVTab, e.mulMMTab = cacheTable[mulMVSlot]{}, cacheTable[mulMMSlot]{}
		e.ipTab, e.trTab, e.ctTab, e.gateTab = nil, nil, nil, nil
		e.cacheGen = 0
	}
	e.cacheGen++
	if e.obs != nil {
		e.obs.ObserveCacheClear()
	}
}

// bumpProjGen starts a fresh projection memo generation (per-Project
// call; see Engine.Project).
func (e *Engine) bumpProjGen() {
	if e.projGen == math.MaxUint32 {
		e.projTab = nil
		e.projGen = 0
	}
	e.projGen++
}
