package core

import (
	"sort"

	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
)

// layeredUpdate is the first online phase (Section IV-B): bring the layered
// structure in sync with the already-applied batch. It
//
//   - grows the flat ID space for fresh vertices (they join Lup as outliers;
//     memberships are frozen between full re-layers, as the paper
//     prescribes: "we update the dense subgraphs only when enough ΔG are
//     accumulated"),
//   - refreshes the flat out-lists of every source whose edges or weights
//     may have changed, returning the edge-level diff that drives
//     revision-message deduction,
//   - re-decides density and proxies of the subgraphs the batch may have
//     reshaped, rebuilding or dissolving those whose decision changed,
//   - revises the shortcuts of every other subgraph whose frame moved
//     (intra-edge changes and role flips) in place, and
//   - refreshes the upper-layer skeleton for the dirty vertices.
type layeredDiff struct {
	// oldSrc/oldRows snapshot pre-update flat out-lists of touched sources
	// in first-touch order (the non-idempotent scheme cancels old
	// contributions from them). Parallel slices, scratch-backed: valid
	// only until the next Update call.
	oldSrc  []graph.VertexID
	oldRows [][]engine.WEdge
	// added/removed are flat-level edge diffs with semiring weights.
	added   []flatEdge
	removed []flatEdge
	// affectedSubs are the subgraphs whose interior changed (rebuilt or
	// revised); the upload phase runs local fixpoints on them.
	affectedSubs map[int32]*Subgraph
	// rebuiltSubs is the subset whose structure (members/proxies) was
	// rebuilt; their proxies' memoized values are invalidated.
	rebuiltSubs map[int32]*Subgraph
	// shortcutActivations counts F applications spent maintaining shortcuts.
	shortcutActivations int64
	// parallelSubs counts the subgraph tasks dispatched to the worker pool
	// during shortcut maintenance.
	parallelSubs int64
}

type flatEdge struct {
	from, to graph.VertexID
	w        float64
}

func (l *Layph) layeredUpdate(applied *delta.Applied) *layeredDiff {
	d := &layeredDiff{
		affectedSubs: make(map[int32]*Subgraph),
		rebuiltSubs:  make(map[int32]*Subgraph),
	}
	l.growForNewVertices(applied)
	sc := &l.scratch
	sc.touched.reset(l.flatN())
	sc.dirtyRoles.reset(l.flatN())
	sc.oldSeen.reset(l.flatN())
	sc.oldRows = sc.oldRows[:0]
	sc.oldRoles = sc.oldRoles[:0]

	// Pass 1: refresh the flat lists of sources whose out-edges (or, for
	// degree-dependent weights, out-weights) changed: sources of changed
	// edges, removed vertices, added vertices, and the entry proxies that
	// carry a changed cross edge on behalf of their host.
	markTouched := func(v graph.VertexID) {
		if int(v) < l.flatN() {
			sc.touched.add(v)
		}
	}
	subOfSafe := func(v graph.VertexID) int32 {
		if int(v) < len(l.subOf) {
			if c := l.subOf[v]; c != NoSubgraph {
				if _, ok := l.subs[c]; ok {
					return c
				}
			}
		}
		return NoSubgraph
	}
	// Entry proxies inherit their host's degree-dependent edge weights, so
	// any change to a host's out-list dirties every entry proxy replicating
	// it — in every subgraph, not just the one the changed edge targets.
	touchSource := func(u graph.VertexID) {
		markTouched(u)
		for _, p := range l.entryProxiesOf[u] {
			if l.proxyAlive[p] {
				markTouched(p)
			}
		}
	}
	changedEdges := append(append([]graph.DeletedEdge(nil), applied.AddedEdges...), applied.RemovedEdges...)
	for _, e := range changedEdges {
		touchSource(e.From)
		if sv := subOfSafe(e.To); sv != NoSubgraph && subOfSafe(e.From) != sv {
			if p, ok := l.entryProxy[proxyKey{sv, e.From}]; ok && l.proxyAlive[p] {
				markTouched(p)
			}
		}
	}
	for _, v := range applied.RemovedVertices {
		touchSource(v)
	}
	for _, v := range applied.AddedVertices {
		markTouched(v)
	}

	refresh := func(v graph.VertexID) {
		old, added, removed := l.refreshFlatVertex(v)
		// Keep the FIRST (true pre-batch) list if v is refreshed twice —
		// rebuilds reroute proxies, forcing a second pass; the sum-scheme
		// corrections must cancel against the pre-batch contributions.
		if sc.oldSeen.add(v) {
			sc.oldRows = append(sc.oldRows, old)
		}
		for _, e := range added {
			d.added = append(d.added, flatEdge{from: v, to: e.To, w: e.W})
			sc.dirtyRoles.add(e.To)
		}
		for _, e := range removed {
			d.removed = append(d.removed, flatEdge{from: v, to: e.To, w: e.W})
			if int(e.To) < l.flatN() {
				sc.dirtyRoles.add(e.To)
			}
		}
		sc.dirtyRoles.add(v)
	}
	for _, v := range sc.touched.list {
		refresh(v)
	}
	// recomputeDirtyRoles recomputes the roles of every dirty vertex,
	// first recording the pre-batch role of each vertex new to the set:
	// a vertex can flip twice in one batch, and only the net flip matters.
	recomputeDirtyRoles := func() {
		for _, v := range sc.dirtyRoles.list[len(sc.oldRoles):] {
			sc.oldRoles = append(sc.oldRoles, l.role[v])
		}
		l.recomputeRoles(sc.dirtyRoles.list)
	}
	recomputeDirtyRoles()

	// Re-decide the dense subgraphs the batch may have reshaped: a member's
	// role flipped (density counts boundary vertices), a replication
	// decision flipped (a host crossed the threshold R), or a member vertex
	// was removed.
	redecide := make(map[int32]struct{})
	markRedecide := func(c int32) {
		if c != NoSubgraph {
			redecide[c] = struct{}{}
		}
	}
	for i, v := range sc.dirtyRoles.list {
		if l.role[v] != sc.oldRoles[i] {
			markRedecide(subOfSafe(v))
		}
	}
	r := l.opt.replication()
	for _, e := range changedEdges {
		u, v := e.From, e.To
		su, sv := subOfSafe(u), subOfSafe(v)
		if sv != NoSubgraph && su != sv {
			count := 0
			if l.g.Alive(u) {
				for _, oe := range l.g.Out(u) {
					if subOfSafe(oe.To) == sv {
						count++
					}
				}
			}
			desire := r > 0 && count >= r
			if desire != l.hasProxy(l.entryProxy, sv, u) {
				markRedecide(sv)
			}
		}
		if su != NoSubgraph && su != sv {
			count := 0
			if l.g.Alive(v) {
				for _, ie := range l.g.In(v) {
					if subOfSafe(ie.To) == su {
						count++
					}
				}
			}
			desire := r > 0 && count >= r
			if desire != l.hasProxy(l.exitProxy, su, v) {
				markRedecide(su)
			}
		}
	}
	for _, v := range applied.RemovedVertices {
		markRedecide(subOfSafe(v))
	}

	// A subgraph that keeps all its members, stays dense and wants exactly
	// its live proxies is revised in place below. Any other is torn down:
	// dissolved, or rebuilt with re-decided proxies (memberships stay
	// frozen). Sorted order keeps fresh proxy IDs reproducible between runs.
	redecideIDs := make([]int32, 0, len(redecide))
	for c := range redecide {
		redecideIDs = append(redecideIDs, c)
	}
	sort.Slice(redecideIDs, func(a, b int) bool { return redecideIDs[a] < redecideIDs[b] })
	restructured := false
	for _, c := range redecideIDs {
		s := l.subs[c]
		before := len(s.origMembers)
		live := s.origMembers[:0]
		for _, v := range s.origMembers {
			if l.g.Alive(v) {
				live = append(live, v)
			}
		}
		dec := l.evaluateCommunity(c, live)
		if len(live) == before && dec.dense && l.keepsProxies(s, dec) {
			continue
		}
		restructured = true
		// Members' rows, their external in-neighbours' rows and the rows
		// of entry proxies replicating members elsewhere (exit proxies here
		// take precedence over them) all depend on this subgraph's proxies.
		for _, v := range s.Members {
			sc.dirtyRoles.add(v)
			touchSource(v)
			if int(v) < l.g.Cap() && l.g.Alive(v) {
				for _, ie := range l.g.In(v) {
					if l.subOf[ie.To] != c {
						markTouched(ie.To)
					}
				}
			}
		}
		for _, p := range s.proxies {
			l.proxyAlive[p] = false
			l.subOf[p] = NoSubgraph
			sc.dirtyRoles.add(p)
			markTouched(p)
		}
		s.proxies = s.proxies[:0]
		s.origMembers = live
		if !dec.dense {
			for _, v := range live {
				l.subOf[v] = NoSubgraph
				sc.dirtyRoles.add(v)
				markTouched(v)
			}
			delete(l.subs, c)
			continue
		}
		for _, h := range dec.entryHosts {
			p := l.allocProxy(true, c, h)
			s.proxies = append(s.proxies, p)
			sc.dirtyRoles.add(p)
			markTouched(p)
			markTouched(h)
		}
		for _, h := range dec.exitHosts {
			p := l.allocProxy(false, c, h)
			s.proxies = append(s.proxies, p)
			sc.dirtyRoles.add(p)
			markTouched(p)
		}
		d.rebuiltSubs[c] = s
	}
	// Teardowns reroute rows through fresh proxies, which can flip roles
	// anywhere; one more refresh and role pass settles them. The flips it
	// finds in surviving subgraphs are revised like any other.
	if restructured {
		for _, v := range sc.touched.list {
			refresh(v)
		}
		recomputeDirtyRoles()
	}
	d.oldSrc, d.oldRows = sc.oldSeen.list, sc.oldRows

	// Every surviving subgraph whose frame moved — an intra-subgraph flat
	// edge changed, or a member's role differs from its pre-batch one — is
	// revised in place; rebuilt ones are deduced from scratch. Both go
	// through the one per-subgraph fan-out.
	revs := make(map[int32]*revision)
	revise := func(c int32, v graph.VertexID) *revision {
		if c == NoSubgraph || d.rebuiltSubs[c] != nil {
			return nil
		}
		rv := revs[c]
		if rv == nil {
			rv = &revision{}
			revs[c] = rv
			d.affectedSubs[c] = l.subs[c]
		}
		rv.srcs = append(rv.srcs, v)
		return rv
	}
	for i, v := range sc.dirtyRoles.list {
		if l.role[v] != sc.oldRoles[i] {
			if rv := revise(subOfSafe(v), v); rv != nil {
				rv.flipped = true
			}
		}
	}
	for _, diffs := range [][]flatEdge{d.added, d.removed} {
		for _, e := range diffs {
			if c := subOfSafe(e.from); c == subOfSafe(e.to) {
				revise(c, e.from)
			}
		}
	}
	for c, s := range d.rebuiltSubs {
		d.affectedSubs[c] = s
	}
	d.shortcutActivations, d.parallelSubs = l.buildSubgraphs(subgraphList(d.affectedSubs), revs)

	sc.upDirty.reset(l.flatN())
	for _, v := range sc.dirtyRoles.list {
		sc.upDirty.add(v)
	}
	for _, s := range subgraphList(d.affectedSubs) {
		for _, u := range s.Entries {
			sc.upDirty.add(u)
		}
	}
	for _, v := range sc.upDirty.list {
		l.refreshUpVertex(v)
	}
	return d
}

// growForNewVertices extends all flat-space vectors when the graph gained
// vertices. The invariant "original vertex v is flat vertex v" must hold, so
// when fresh original IDs would collide with previously allocated proxy IDs,
// the proxy segment is relocated past the new cap.
func (l *Layph) growForNewVertices(applied *delta.Applied) {
	if len(applied.AddedVertices) == 0 {
		return
	}
	capNow := l.g.Cap()
	if capNow > l.origCap {
		if l.flatN() > l.origCap {
			l.remapProxies(capNow)
		} else {
			for l.flatN() < capNow {
				l.subOf = append(l.subOf, NoSubgraph)
				l.role = append(l.role, RoleDead)
				l.proxyHost = append(l.proxyHost, NoHost)
				l.proxyAlive = append(l.proxyAlive, false)
				l.localIdx = append(l.localIdx, -1)
				l.flatOut = append(l.flatOut, nil)
				l.flatIn = append(l.flatIn, nil)
				l.upOut = append(l.upOut, nil)
				l.upIn = append(l.upIn, nil)
				l.x = append(l.x, l.sr.Zero())
				if l.parent != nil {
					l.parent = append(l.parent, engine.NoParent)
				}
			}
		}
		l.origCap = capNow
	}
	for _, v := range applied.AddedVertices {
		l.subOf[v] = NoSubgraph
		l.role[v] = RoleOutlier
		l.x[v] = l.a.InitState(v)
		if l.parent != nil {
			l.parent[v] = engine.NoParent
		}
	}
}

// remapProxies relocates all proxy vertices to the end of the grown ID
// space. Proxy state (x, parents, adjacency) moves with them.
func (l *Layph) remapProxies(newCap int) {
	oldN := l.flatN()
	numProxies := 0
	remap := make(map[graph.VertexID]graph.VertexID)
	for v := l.origCap; v < oldN; v++ {
		remap[graph.VertexID(v)] = graph.VertexID(newCap + numProxies)
		numProxies++
	}
	if numProxies == 0 {
		return
	}
	mapID := func(v graph.VertexID) graph.VertexID {
		if nv, ok := remap[v]; ok {
			return nv
		}
		return v
	}
	newN := newCap + numProxies
	subOf := make([]int32, newN)
	role := make([]Role, newN)
	proxyHost := make([]graph.VertexID, newN)
	proxyAlive := make([]bool, newN)
	flatOut := make([][]engine.WEdge, newN)
	flatIn := make([][]engine.WEdge, newN)
	upOut := make([][]engine.WEdge, newN)
	upIn := make([][]engine.WEdge, newN)
	x := make([]float64, newN)
	var parent []graph.VertexID
	if l.parent != nil {
		parent = make([]graph.VertexID, newN)
	}
	for i := 0; i < newN; i++ {
		subOf[i] = NoSubgraph
		role[i] = RoleDead
		proxyHost[i] = NoHost
		x[i] = l.sr.Zero()
		if parent != nil {
			parent[i] = engine.NoParent
		}
	}
	moveList := func(list []engine.WEdge) []engine.WEdge {
		out := make([]engine.WEdge, len(list))
		for i, e := range list {
			out[i] = engine.WEdge{To: mapID(e.To), W: e.W}
		}
		return out
	}
	for v := 0; v < oldN; v++ {
		nv := mapID(graph.VertexID(v))
		subOf[nv] = l.subOf[v]
		role[nv] = l.role[v]
		proxyHost[nv] = l.proxyHost[v]
		proxyAlive[nv] = l.proxyAlive[v]
		flatOut[nv] = moveList(l.flatOut[v])
		flatIn[nv] = moveList(l.flatIn[v])
		upOut[nv] = moveList(l.upOut[v])
		upIn[nv] = moveList(l.upIn[v])
		x[nv] = l.x[v]
		if parent != nil {
			p := l.parent[v]
			if p != engine.NoParent {
				p = mapID(p)
			}
			parent[nv] = p
		}
	}
	l.subOf, l.role, l.proxyHost, l.proxyAlive = subOf, role, proxyHost, proxyAlive
	l.flatOut, l.flatIn, l.upOut, l.upIn = flatOut, flatIn, upOut, upIn
	l.x, l.parent = x, parent
	l.localIdx = make([]int32, newN)
	for i := range l.localIdx {
		l.localIdx[i] = -1
	}
	for k, p := range l.entryProxy {
		l.entryProxy[k] = mapID(p)
	}
	for k, p := range l.exitProxy {
		l.exitProxy[k] = mapID(p)
	}
	for _, ps := range l.entryProxiesOf {
		for i, p := range ps {
			ps[i] = mapID(p)
		}
	}
	for _, s := range l.subs {
		for i, p := range s.proxies {
			s.proxies[i] = mapID(p)
		}
		for i, v := range s.Members {
			s.Members[i] = mapID(v)
		}
		for i, v := range s.Entries {
			s.Entries[i] = mapID(v)
		}
		for i, v := range s.Exits {
			s.Exits[i] = mapID(v)
		}
		for i, v := range s.Internal {
			s.Internal[i] = mapID(v)
		}
		if s.Local != nil {
			for i, v := range s.Local.ids {
				s.Local.ids[i] = mapID(v)
				l.localIdx[s.Local.ids[i]] = int32(i)
			}
		}
		// Shortcut lists target global flat IDs; their vectors and parents
		// live in compact-ID space and survive the remap untouched.
		for i, list := range s.scToB {
			s.scToB[i] = moveList(list)
		}
		for i, list := range s.scToI {
			s.scToI[i] = moveList(list)
		}
	}
}
