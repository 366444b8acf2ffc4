package dd

import "time"

// GarbageCollect drops every node not reachable from the given roots
// from the unique tables and invalidates the compute caches. Node
// identities (and hence hash-consing of the surviving nodes) are
// preserved — reachable diagrams remain valid and canonical.
//
// Collection is mark-sweep over the engine's own structures: reachable
// nodes are stamped with a fresh traversal epoch (no live-set maps are
// built), dead entries are tombstoned out of the unique tables in
// place, and their nodes go onto the arena free lists for reuse —
// nothing is handed back to the Go heap. Cache invalidation afterwards
// is a single generation bump, O(1).
//
// The core simulator calls this when live node counts exceed its
// threshold; long runs would otherwise retain every intermediate state
// ever built.
//
// Collection is abort-atomic: no abort probe (see abort.go) is taken
// inside the mark or sweep phases, so a deadline, cancellation or
// budget abort can never fire mid-collection and leave the unique
// tables half-swept. After a recovered abort, a GarbageCollect with the
// surviving roots reclaims whatever the interrupted operation built.
func (e *Engine) GarbageCollect(vroots []VEdge, mroots []MEdge) {
	start := time.Now()
	e.stats.GCs++

	e.bumpEpoch()
	for _, r := range vroots {
		e.markV(r.N)
	}
	for _, r := range mroots {
		e.markM(r.N)
	}
	// The identity cache is cheap to keep and pervasively shared; treat
	// its entries as roots so Identity() stays O(1) after collection.
	for _, id := range e.identity {
		e.markM(id.N)
	}

	freed := e.vUnique.sweep(e.epoch, &e.vArena)
	freed += e.mUnique.sweep(e.epoch, &e.mArena)
	e.stats.NodesRecycled += uint64(freed)

	e.clearCaches()

	pause := time.Since(start)
	e.stats.GCPause += pause
	if pause > e.stats.GCMaxPause {
		e.stats.GCMaxPause = pause
	}
	if e.obs != nil {
		e.obs.ObserveGC(GCInfo{Pause: pause, Freed: freed,
			VLive: e.vUnique.live, MLive: e.mUnique.live})
	}
}

// markV stamps every node reachable from n with the current epoch.
func (e *Engine) markV(n *VNode) {
	if n == vTerminal || n == nil || n.mark == e.epoch {
		return
	}
	n.mark = e.epoch
	e.markV(n.E[0].N)
	e.markV(n.E[1].N)
}

// markM stamps every matrix node reachable from n with the current epoch.
func (e *Engine) markM(n *MNode) {
	if n == mTerminal || n == nil || n.mark == e.epoch {
		return
	}
	n.mark = e.epoch
	for i := range n.E {
		e.markM(n.E[i].N)
	}
}
