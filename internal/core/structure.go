package core

import (
	"slices"
	"sort"

	"layph/internal/engine"
	"layph/internal/graph"
)

// commOf returns the community id of an original vertex (NoSubgraph if
// outside the partition or dead).
func (l *Layph) commOf(v graph.VertexID) int32 {
	if int(v) >= len(l.part.Comm) {
		return NoSubgraph
	}
	if c := l.part.Comm[v]; c >= 0 {
		return c
	}
	return NoSubgraph
}

// denseDecision is the outcome of evaluating one community for dense-
// subgraph status (Definition 2) including prospective vertex replication.
type denseDecision struct {
	dense      bool
	entryHosts []graph.VertexID // external sources to replicate (entry side)
	exitHosts  []graph.VertexID // external targets to replicate (exit side)
	numEntries int
	numExits   int
}

// evaluateCommunity counts boundary vertices and internal edges of the
// community as they would look after replication, and applies the paper's
// density test |V_I|·|V_O| < |E_i|.
func (l *Layph) evaluateCommunity(c int32, members []graph.VertexID) denseDecision {
	var d denseDecision
	if len(members) < 2 {
		return d
	}
	in := make(map[graph.VertexID]struct{}, len(members))
	for _, v := range members {
		in[v] = struct{}{}
	}
	r := l.opt.replication()

	inCount := make(map[graph.VertexID]int)  // external source -> #edges into c
	outCount := make(map[graph.VertexID]int) // external target -> #edges out of c
	intraEdges := 0
	for _, v := range members {
		for _, e := range l.g.Out(v) {
			if _, ok := in[e.To]; ok {
				intraEdges++
			} else {
				outCount[e.To]++
			}
		}
		for _, e := range l.g.In(v) {
			if _, ok := in[e.To]; !ok {
				inCount[e.To]++
			}
		}
	}
	entryProxied := make(map[graph.VertexID]struct{})
	exitProxied := make(map[graph.VertexID]struct{})
	if r > 0 {
		for h, n := range inCount {
			if n >= r {
				entryProxied[h] = struct{}{}
				d.entryHosts = append(d.entryHosts, h)
			}
		}
		for h, n := range outCount {
			if n >= r {
				exitProxied[h] = struct{}{}
				d.exitHosts = append(d.exitHosts, h)
			}
		}
	}
	sortVertices(d.entryHosts)
	sortVertices(d.exitHosts)

	// Post-replication boundary/edge counts: an edge from a replicated host
	// becomes internal (it now targets vertices from the in-subgraph proxy),
	// so it stops conferring entry status; symmetrically for exits.
	entries := make(map[graph.VertexID]struct{})
	exits := make(map[graph.VertexID]struct{})
	internalEdges := intraEdges
	for _, v := range members {
		for _, e := range l.g.In(v) {
			if _, ok := in[e.To]; ok {
				continue
			}
			if _, prox := entryProxied[e.To]; prox {
				internalEdges++
			} else {
				entries[v] = struct{}{}
			}
		}
		for _, e := range l.g.Out(v) {
			if _, ok := in[e.To]; ok {
				continue
			}
			if _, prox := exitProxied[e.To]; prox {
				internalEdges++
			} else {
				exits[v] = struct{}{}
			}
		}
	}
	d.numEntries = len(entries) + len(d.entryHosts)
	d.numExits = len(exits) + len(d.exitHosts)
	d.dense = d.numEntries*d.numExits < internalEdges
	return d
}

// keepsProxies reports whether decision dec wants exactly s's live proxies.
// Every live proxy of s is in s.proxies, so equal counts plus every wanted
// host present means equal sets.
func (l *Layph) keepsProxies(s *Subgraph, dec denseDecision) bool {
	if len(dec.entryHosts)+len(dec.exitHosts) != len(s.proxies) {
		return false
	}
	for _, h := range dec.entryHosts {
		if !l.hasProxy(l.entryProxy, s.ID, h) {
			return false
		}
	}
	for _, h := range dec.exitHosts {
		if !l.hasProxy(l.exitProxy, s.ID, h) {
			return false
		}
	}
	return true
}

func sortVertices(vs []graph.VertexID) {
	sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
}

// allocProxy returns the proxy id for (sub, host) in the entry- or
// exit-side registry, allocating a fresh flat vertex when absent, and
// revives it if orphaned.
func (l *Layph) allocProxy(entrySide bool, sub int32, host graph.VertexID) graph.VertexID {
	reg := l.exitProxy
	if entrySide {
		reg = l.entryProxy
	}
	k := proxyKey{sub: sub, host: host}
	if p, ok := reg[k]; ok {
		l.proxyAlive[p] = true
		l.subOf[p] = sub
		return p
	}
	p := graph.VertexID(l.flatN())
	reg[k] = p
	if entrySide {
		l.entryProxiesOf[host] = append(l.entryProxiesOf[host], p)
	}
	l.subOf = append(l.subOf, sub)
	l.role = append(l.role, RoleInternal) // refined by recomputeRoles
	l.proxyHost = append(l.proxyHost, host)
	l.proxyAlive = append(l.proxyAlive, true)
	l.localIdx = append(l.localIdx, -1)
	l.flatOut = append(l.flatOut, nil)
	l.flatIn = append(l.flatIn, nil)
	l.upOut = append(l.upOut, nil)
	l.upIn = append(l.upIn, nil)
	l.x = append(l.x, l.sr.Zero())
	if l.parent != nil {
		l.parent = append(l.parent, engine.NoParent)
	}
	return p
}

// computeFlatOut derives the flat out-list of a flat vertex from the graph
// and the current proxy registries. Precedence for a cross-subgraph edge
// that qualifies for both sides: the exit-side proxy wins (the edge is
// swallowed into the source's subgraph).
func (l *Layph) computeFlatOut(v graph.VertexID) []engine.WEdge {
	if !l.flatAlive(v) {
		return nil
	}
	if int(v) >= l.g.Cap() {
		return l.computeProxyOut(v)
	}
	sv := l.subOf[v]
	var out []engine.WEdge
	linkEmitted := make(map[int32]struct{})
	for _, e := range l.g.Out(v) {
		w := l.a.EdgeWeight(l.g, v, e)
		st := l.subOf[e.To]
		switch {
		case sv != NoSubgraph && st == sv:
			out = append(out, engine.WEdge{To: e.To, W: w})
		case sv != NoSubgraph && l.hasProxy(l.exitProxy, sv, e.To):
			out = append(out, engine.WEdge{To: l.exitProxy[proxyKey{sv, e.To}], W: w})
		case st != NoSubgraph && l.hasProxy(l.entryProxy, st, v):
			if _, done := linkEmitted[st]; !done {
				linkEmitted[st] = struct{}{}
				out = append(out, engine.WEdge{To: l.entryProxy[proxyKey{st, v}], W: l.sr.One()})
			}
			// The real edge belongs to the proxy's out-list.
		default:
			out = append(out, engine.WEdge{To: e.To, W: w})
		}
	}
	return out
}

func (l *Layph) hasProxy(reg map[proxyKey]graph.VertexID, sub int32, host graph.VertexID) bool {
	p, ok := reg[proxyKey{sub, host}]
	return ok && l.proxyAlive[p]
}

// computeProxyOut builds a proxy's out-list: an exit proxy links to its
// host; an entry proxy carries the host's (non-exit-proxied) edges into the
// subgraph, with the host's original semiring weights.
func (l *Layph) computeProxyOut(p graph.VertexID) []engine.WEdge {
	host := l.proxyHost[p]
	sub := l.subOf[p]
	if l.hasProxy(l.exitProxy, sub, host) && l.exitProxy[proxyKey{sub, host}] == p {
		return []engine.WEdge{{To: host, W: l.sr.One()}}
	}
	var out []engine.WEdge
	if !l.g.Alive(host) {
		return nil
	}
	sh := l.subOf[host]
	for _, e := range l.g.Out(host) {
		if l.subOf[e.To] != sub {
			continue
		}
		// Exit-side precedence: the host's subgraph may have swallowed this
		// edge into an exit proxy already.
		if sh != NoSubgraph && l.hasProxy(l.exitProxy, sh, e.To) {
			continue
		}
		out = append(out, engine.WEdge{To: e.To, W: l.a.EdgeWeight(l.g, host, e)})
	}
	return out
}

// refreshFlatVertex recomputes v's flat out-list, updates the mirrored
// in-lists, and returns the previous list together with the diff.
func (l *Layph) refreshFlatVertex(v graph.VertexID) (old, added, removed []engine.WEdge) {
	old = l.flatOut[v]
	fresh := l.computeFlatOut(v)
	l.flatOut[v] = fresh
	added, removed = diffRows(old, fresh)
	for _, e := range removed {
		l.flatIn[e.To] = dropEdge(l.flatIn[e.To], v)
	}
	for _, e := range added {
		l.flatIn[e.To] = append(l.flatIn[e.To], engine.WEdge{To: v, W: e.W})
	}
	return old, added, removed
}

// diffRows returns the edges that differ between an old and a fresh
// out-list, by target and weight; a reweighted edge lands in both.
func diffRows(old, fresh []engine.WEdge) (added, removed []engine.WEdge) {
	if slices.Equal(old, fresh) {
		return nil, nil
	}
	oldW := make(map[graph.VertexID]float64, len(old))
	for _, e := range old {
		oldW[e.To] = e.W
	}
	for _, e := range fresh {
		if w, ok := oldW[e.To]; ok {
			delete(oldW, e.To)
			if w == e.W {
				continue
			}
			removed = append(removed, engine.WEdge{To: e.To, W: w})
		}
		added = append(added, e)
	}
	for _, e := range old {
		if _, ok := oldW[e.To]; ok {
			removed = append(removed, e)
		}
	}
	return added, removed
}

func dropEdge(list []engine.WEdge, to graph.VertexID) []engine.WEdge {
	for i := range list {
		if list[i].To == to {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// recomputeRoles reassigns roles for the given flat vertices from the flat
// adjacency and subgraph membership.
func (l *Layph) recomputeRoles(vs []graph.VertexID) {
	for _, v := range vs {
		if !l.flatAlive(v) {
			l.role[v] = RoleDead
			continue
		}
		sv := l.subOf[v]
		if sv == NoSubgraph {
			l.role[v] = RoleOutlier
			continue
		}
		entry, exit := false, false
		for _, e := range l.flatIn[v] {
			if l.subOf[e.To] != sv {
				entry = true
				break
			}
		}
		for _, e := range l.flatOut[v] {
			if l.subOf[e.To] != sv {
				exit = true
				break
			}
		}
		switch {
		case entry && exit:
			l.role[v] = RoleEntryExit
		case entry:
			l.role[v] = RoleEntry
		case exit:
			l.role[v] = RoleExit
		default:
			l.role[v] = RoleInternal
		}
	}
}

// buildLocalFrame projects the subgraph's internal flat edges onto compact
// IDs. It (re)assigns the members' slots in the shared localIdx vector;
// concurrent builds of different subgraphs write disjoint slots because
// memberships are disjoint.
func (l *Layph) buildLocalFrame(s *Subgraph) {
	lf := &localFrame{ids: make([]graph.VertexID, 0, len(s.Members))}
	s.Local = lf
	for _, v := range s.Members {
		l.localIdx[v] = int32(len(lf.ids))
		lf.ids = append(lf.ids, v)
	}
	lf.out = make([][]engine.WEdge, len(lf.ids))
	lf.absorbOut = make([][]engine.WEdge, len(lf.ids))
	lf.absorbIn = make([][]engine.WEdge, len(lf.ids))
	for ci, v := range lf.ids {
		lf.setRow(graph.VertexID(ci), l.localRow(s, v), l.role[v].IsEntry())
	}
}

// localRow projects v's flat out-list onto s's compact IDs.
func (l *Layph) localRow(s *Subgraph, v graph.VertexID) []engine.WEdge {
	var row []engine.WEdge
	for _, e := range l.flatOut[v] {
		if tj, ok := l.compactID(s, e.To); ok {
			row = append(row, engine.WEdge{To: graph.VertexID(tj), W: e.W})
		}
	}
	return row
}

// setRow replaces compact vertex c's row. An entry's row stays out of the
// absorbing frame; absorbIn mirrors absorbOut.
func (lf *localFrame) setRow(c graph.VertexID, row []engine.WEdge, entry bool) {
	for _, e := range lf.absorbOut[c] {
		lf.absorbIn[e.To] = dropEdge(lf.absorbIn[e.To], c)
	}
	lf.edges += len(row) - len(lf.out[c])
	lf.out[c] = row
	lf.absorbOut[c] = nil
	if !entry {
		lf.absorbOut[c] = row
		for _, e := range row {
			lf.absorbIn[e.To] = append(lf.absorbIn[e.To], engine.WEdge{To: c, W: e.W})
		}
	}
}

// buildSubgraph (re)constructs s from scratch: member classification, local
// frame, and a deduction for every entry. Returns the F applications spent.
func (l *Layph) buildSubgraph(s *Subgraph, parallelEntries bool) int64 {
	l.classifyMembers(s)
	l.buildLocalFrame(s)
	k := s.Local.size()
	s.scToB = make([][]engine.WEdge, k)
	s.scToI = make([][]engine.WEdge, k)
	s.scVec = make([][]float64, k)
	s.scParent = nil
	if l.sr.Idempotent() {
		s.scParent = make([][]graph.VertexID, k)
	}
	return l.forEntries(s.Entries, parallelEntries, func(u graph.VertexID) int64 {
		return l.deduceEntry(s, u)
	})
}

// forEntries runs fn for each listed entry — over the worker pool when
// parallel, in order otherwise — and sums the activations fn returns. fn
// must write only its own entry's slots. Callers already running one task
// per subgraph pass parallel=false: one level of fan-out keeps pool
// busy-time accounting exact (see buildSubgraphs).
func (l *Layph) forEntries(entries []graph.VertexID, parallel bool, fn func(u graph.VertexID) int64) int64 {
	acts := make([]int64, len(entries))
	if parallel {
		grp := l.pool.Group()
		for i, u := range entries {
			i, u := i, u
			grp.Go(func() { acts[i] = fn(u) })
		}
		grp.Wait()
	} else {
		for i, u := range entries {
			acts[i] = fn(u)
		}
	}
	var total int64
	for _, a := range acts {
		total += a
	}
	return total
}

// deduceEntry runs Equation (6) for entry u from scratch: inject the
// semiring unit at u, run the local fixpoint over the compact frame, and
// memoize the aggregates as u's shortcut vector (with compact dependency
// parents for idempotent algorithms) and shortcut lists. It reads only the
// frame and writes only u's slots, so entries deduce concurrently. Returns
// the F applications spent.
//
// Shortcut weights count internal paths whose intermediate vertices are
// not entries (the source included): the unit message is emitted over the
// source's out-edges directly and the fixpoint runs on the fully absorbing
// frame. Through-entry and revisiting paths are then covered exactly once
// by shortcut composition on Lup (including the self-shortcut for
// sum-semiring cycles back to the entry).
func (l *Layph) deduceEntry(s *Subgraph, u graph.VertexID) int64 {
	lf := s.Local
	k := lf.size()
	cu := l.localIdx[u]
	zero := l.sr.Zero()
	x0 := make([]float64, k)
	m0 := make([]float64, k)
	for j := range x0 {
		x0[j], m0[j] = zero, zero
	}
	var acts int64
	for _, e := range lf.out[cu] {
		m0[e.To] = l.sr.Plus(m0[e.To], l.sr.Times(l.sr.One(), e.W))
		acts++
	}
	res := engine.Run(&engine.Frame{Out: lf.absorbOut}, l.sr, x0, m0, engine.Options{
		Workers:      1,
		Tolerance:    l.scTol(),
		TrackParents: s.scParent != nil,
	})
	acts += res.Activations
	s.scVec[cu] = res.X
	if s.scParent != nil {
		// The engine's parents form a dependency tree even over zero-weight
		// cycles; values that came straight from the seed hang off u.
		for ci, p := range res.Parent {
			if p == engine.NoParent && res.X[ci] != zero {
				res.Parent[ci] = graph.VertexID(cu)
			}
		}
		s.scParent[cu] = res.Parent
	}
	l.rebuildShortcutLists(s, u)
	return acts
}

// rebuildShortcutLists re-derives entry u's shortcut lists from its
// memoized vector.
func (l *Layph) rebuildShortcutLists(s *Subgraph, u graph.VertexID) {
	zero := l.sr.Zero()
	lf := s.Local
	cu := l.localIdx[u]
	var toB, toI []engine.WEdge
	for ci, w := range s.scVec[cu] {
		if w == zero {
			continue
		}
		v := lf.ids[ci]
		if v == u {
			// Self-shortcut: cycles that return to the entry. For
			// idempotent semirings cycles cannot improve anything.
			if !l.sr.Idempotent() {
				toB = append(toB, engine.WEdge{To: u, W: w})
			}
			continue
		}
		sc := engine.WEdge{To: v, W: w}
		if l.role[v] == RoleInternal {
			toI = append(toI, sc)
		} else {
			toB = append(toB, sc)
		}
	}
	s.scToB[cu] = toB
	s.scToI[cu] = toI
}

// revision is what moved inside a subgraph that keeps its members and
// proxies through a batch.
type revision struct {
	// srcs are members whose frame row may have changed: sources of
	// intra-subgraph flat diffs and members whose role flipped.
	srcs []graph.VertexID
	// flipped reports a member role flip (exit-only ones included), which
	// re-partitions the member lists and every entry's shortcut lists.
	flipped bool
}

// reviseShortcuts is the paper's incremental shortcut maintenance (Section
// IV-B) for a subgraph that keeps its members and proxies: it rewrites the
// frame rows of r.srcs and moves the memoized entry vectors with the frame
// instead of re-deducing the subgraph.
//
// Every change is a row diff of the absorbing frame, taken between the
// stored (pre-batch) row and the current one: an intra-edge change moves a
// non-entry's row, a vertex that became an entry loses its whole row, and
// one that stopped being an entry gains it. An entry that was one before
// and still is absorbs those diffs, plus the diff of its own full row (its
// seed), through revision messages; a new entry gets one from-scratch
// deduction; a retired entry drops its vector. Returns the F applications
// spent.
func (l *Layph) reviseShortcuts(s *Subgraph, r *revision, parallelEntries bool) int64 {
	lf := s.Local
	done := make([]bool, lf.size())
	var added, removed []cDiff // absorbing-frame diffs: they move every vector
	seedAdded := make(map[graph.VertexID][]cDiff)
	seedRemoved := make(map[graph.VertexID][]cDiff)
	for _, v := range r.srcs {
		ci, ok := l.compactID(s, v)
		if !ok || done[ci] {
			continue
		}
		done[ci] = true
		c := graph.VertexID(ci)
		row := l.localRow(s, v)
		entry := l.role[v].IsEntry()
		var absorb []engine.WEdge
		if !entry {
			absorb = row
		}
		a, rm := diffRows(lf.absorbOut[c], absorb)
		added, removed = appendDiffs(added, c, a), appendDiffs(removed, c, rm)
		if entry && s.scVec[c] != nil {
			a, rm = diffRows(lf.out[c], row)
			seedAdded[c], seedRemoved[c] = appendDiffs(nil, c, a), appendDiffs(nil, c, rm)
		}
		lf.setRow(c, row, entry)
	}
	if r.flipped {
		l.classifyMembers(s)
		for ci, vec := range s.scVec {
			if vec != nil && !l.role[lf.ids[ci]].IsEntry() {
				s.scVec[ci], s.scToB[ci], s.scToI[ci] = nil, nil, nil
				if s.scParent != nil {
					s.scParent[ci] = nil
				}
			}
		}
	}
	return l.forEntries(s.Entries, parallelEntries, func(u graph.VertexID) int64 {
		cu := graph.VertexID(l.localIdx[u])
		if s.scVec[cu] == nil {
			return l.deduceEntry(s, u)
		}
		add, del := added, removed
		if sa, sd := seedAdded[cu], seedRemoved[cu]; len(sa)+len(sd) > 0 {
			add, del = append(sa, added...), append(sd, removed...)
		}
		var acts int64
		moved := false
		if len(add)+len(del) > 0 {
			if l.sr.Idempotent() {
				acts, moved = l.updateEntryMin(s, u, add, del)
			} else {
				acts, moved = l.updateEntrySum(s, cu, add, del)
			}
		}
		if moved || r.flipped {
			l.rebuildShortcutLists(s, u)
		}
		return acts
	})
}

// cDiff is an internal edge diff in a subgraph's compact ID space.
type cDiff struct {
	from, to graph.VertexID
	w        float64
}

// appendDiffs appends row c's edges to ds as compact diffs.
func appendDiffs(ds []cDiff, c graph.VertexID, es []engine.WEdge) []cDiff {
	for _, e := range es {
		ds = append(ds, cDiff{c, e.To, e.W})
	}
	return ds
}

// updateEntrySum applies exact inverse deltas for entry cu's vector and
// reports whether it moved. A diff either leaves cu itself (its seed) or
// leaves a vertex that is a non-entry in the frame the diff belongs to, so
// its contribution is the vertex's pre-revision value times the weight —
// no role lookup involved.
func (l *Layph) updateEntrySum(s *Subgraph, cu graph.VertexID, added, removed []cDiff) (int64, bool) {
	vec := s.scVec[cu]
	pending := make([]float64, len(vec))
	var acts int64
	seeded := false
	contrib := func(e cDiff) float64 {
		if e.from == cu {
			return l.sr.One() * e.w // direct seed edge from the entry
		}
		return vec[e.from] * e.w
	}
	for _, e := range removed {
		if m := contrib(e); m != 0 {
			pending[e.to] -= m
			seeded = true
			acts++
		}
	}
	for _, e := range added {
		if m := contrib(e); m != 0 {
			pending[e.to] += m
			seeded = true
			acts++
		}
	}
	if !seeded {
		return acts, false
	}
	res := engine.Run(&engine.Frame{Out: s.Local.absorbOut}, l.sr, vec, pending, engine.Options{Workers: 1, Tolerance: l.scTol()})
	acts += res.Activations
	s.scVec[cu] = res.X
	return acts, true
}

// scTol is the tolerance of shortcut-maintenance fixpoints: tighter than the
// propagation tolerance because shortcut weights are reused by every later
// update, so truncation would accumulate across batches.
func (l *Layph) scTol() float64 { return l.tol * 1e-2 }

// updateEntryMin applies ⊥-cancellation resets and recomputation for entry
// u's vector and reports whether it moved. As in updateEntrySum, a diff
// leaves u itself or a vertex that is a non-entry in the diff's frame.
func (l *Layph) updateEntryMin(s *Subgraph, u graph.VertexID, added, removed []cDiff) (int64, bool) {
	lf := s.Local
	cu := graph.VertexID(l.localIdx[u])
	vec := s.scVec[cu]
	k := len(vec)
	zero := l.sr.Zero()
	par := s.scParent[cu]
	var acts int64

	// Everything below runs in compact-ID space, so k-sized scoreboards
	// replace maps: cheaper, and iteration order is the insertion order of
	// the queues, which is deterministic.
	tagged := make([]bool, k)
	var queue []graph.VertexID
	tag := func(c graph.VertexID) {
		if !tagged[c] {
			tagged[c] = true
			queue = append(queue, c)
		}
	}
	for _, e := range removed {
		if e.from == cu || par[e.to] == e.from {
			tag(e.to)
		}
	}
	var resets []graph.VertexID
	if len(queue) > 0 {
		children := make([][]graph.VertexID, k)
		for c, p := range par {
			if p != engine.NoParent {
				children[p] = append(children[p], graph.VertexID(c))
			}
		}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			resets = append(resets, c)
			for _, ch := range children[c] {
				tag(ch)
			}
		}
	}
	for _, c := range resets {
		vec[c] = zero
		par[c] = engine.NoParent
	}

	// Offers seed the revision run; from remembers each winning offer's
	// source, the parent of a value the run takes straight from its seed.
	pending := make([]float64, k)
	from := make([]graph.VertexID, k)
	for i := range pending {
		pending[i] = zero
	}
	var act []graph.VertexID
	inAct := make([]bool, k)
	offer := func(c, src graph.VertexID, m float64) {
		if l.sr.Plus(pending[c], m) != pending[c] {
			pending[c], from[c] = l.sr.Plus(pending[c], m), src
		}
	}
	activate := func(c graph.VertexID) {
		if !inAct[c] {
			inAct[c] = true
			act = append(act, c)
		}
	}
	// Offers for reset targets from intact sources: u's direct edges plus
	// non-tagged absorbing-frame in-neighbors.
	for _, c := range resets {
		for _, e := range lf.out[cu] {
			if e.To == c {
				offer(c, cu, l.sr.Times(l.sr.One(), e.W))
				acts++
			}
		}
		for _, ie := range lf.absorbIn[c] {
			a := ie.To
			if tagged[a] || vec[a] == zero {
				continue
			}
			acts++
			if m := l.sr.Times(vec[a], ie.W); m != zero {
				offer(c, a, m)
			}
		}
		if pending[c] != zero {
			activate(c)
		}
	}
	// Compensation candidates from added edges.
	for _, e := range added {
		var m float64
		switch {
		case e.from == cu:
			m = l.sr.Times(l.sr.One(), e.w)
		case vec[e.from] != zero:
			m = l.sr.Times(vec[e.from], e.w)
		default:
			continue
		}
		acts++
		if l.sr.Plus(vec[e.to], m) != vec[e.to] {
			offer(e.to, e.from, m)
			activate(e.to)
		}
	}
	if len(act) == 0 && len(resets) == 0 {
		return acts, false
	}
	res := engine.Run(&engine.Frame{Out: lf.absorbOut}, l.sr, vec, pending, engine.Options{
		Workers: 1, Tolerance: l.scTol(), InitialActive: act, TrackChanged: true, TrackParents: true,
	})
	acts += res.Activations
	s.scVec[cu] = res.X
	// Everything that moved takes the run's parent, or its seed offer's
	// source; reset vertices left unreached keep NoParent.
	for _, c := range res.Changed {
		par[c] = res.Parent[c]
		if par[c] == engine.NoParent {
			par[c] = from[c]
		}
	}
	return acts, true
}

// computeUpOut derives a flat vertex's upper-layer out-list: flat edges
// leaving its subgraph (or any flat edge, for outliers) plus, for entries,
// their boundary shortcuts.
func (l *Layph) computeUpOut(v graph.VertexID) []engine.WEdge {
	if !l.flatAlive(v) || !l.onUp(v) {
		return nil
	}
	sv := l.subOf[v]
	var out []engine.WEdge
	for _, e := range l.flatOut[v] {
		if sv != NoSubgraph && l.subOf[e.To] == sv {
			continue
		}
		out = append(out, e)
	}
	if l.role[v].IsEntry() {
		if s := l.subs[sv]; s != nil {
			out = append(out, l.ShortcutsToBoundary(s, v)...)
		}
	}
	return out
}

// refreshUpVertex recomputes v's Lup out-list and mirrors the diff into the
// Lup in-lists.
func (l *Layph) refreshUpVertex(v graph.VertexID) {
	old := l.upOut[v]
	fresh := l.computeUpOut(v)
	l.upOut[v] = fresh
	added, removed := diffRows(old, fresh)
	for _, e := range removed {
		l.upIn[e.To] = dropEdge(l.upIn[e.To], v)
	}
	for _, e := range added {
		l.upIn[e.To] = append(l.upIn[e.To], engine.WEdge{To: v, W: e.W})
	}
}
