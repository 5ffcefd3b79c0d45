// Package inc provides the shared machinery of incremental graph
// computation (Section II-B of the paper): memoized state, dependency
// trees for idempotent (min-like) algorithms, and revision-message
// deduction — cancellation messages that retract the effects of invalid
// messages and compensation messages that replay missing ones.
//
// Two incrementalization schemes exist, keyed on the semiring:
//
//   - Idempotent (tropical; SSSP/BFS): min has no inverse, so edge deletions
//     are handled with a dependency tree: every vertex remembers the
//     in-neighbor that determined its state; deleting a dependency edge
//     invalidates the whole downstream subtree, which is reset to 0̄ (the
//     paper's ⊥ cancellation) and recomputed from offers made by its intact
//     in-neighbors. This is the scheme of KickStarter, RisGraph and
//     Ingress's memoization-path engine.
//
//   - Non-idempotent (real; PageRank/PHP): sum has an inverse, so an edge
//     change (u,v): w0→w1 is compensated exactly by the delta message
//     x_old(u)·(w1−w0); no per-edge memoization beyond the converged states
//     is needed. This is Ingress's memoization-free engine.
package inc

import (
	"time"

	"layph/internal/algo"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/graph"
)

// Stats describes one incremental update run. Activations include the F
// applications spent deducing revision messages, not just those of the
// subsequent iterative propagation, mirroring how the paper counts them.
type Stats struct {
	// Activations is the number of F applications (edge activations).
	Activations int64
	// Rounds is the number of engine propagation rounds.
	Rounds int
	// Resets is the number of vertices invalidated by ⊥ cancellations
	// (idempotent scheme only).
	Resets int
	// Duration is the wall-clock time of the update.
	Duration time.Duration
	// SubgraphsParallel counts the lower-layer pool tasks dispatched to
	// the engine's shared worker pool during the update (upload fixpoints,
	// shortcut maintenance and assignment replays; Layph only). Touched
	// subgraphs are fused into edge-weight-balanced chunks before
	// dispatch, so this counts chunks, not individual subgraphs. It
	// measures the parallelism the batch exposed, independent of how many
	// threads actually ran the tasks.
	SubgraphsParallel int64
	// PoolUtilization is the fraction of worker-pool capacity kept busy
	// over the update's wall-clock time (0..1; 0 for engines without a
	// pool).
	PoolUtilization float64
	// ReplayedBatches counts Update calls that re-applied write-ahead-log
	// tail batches during crash recovery rather than live traffic. In an
	// aggregated record it separates recovery work from serving work.
	ReplayedBatches int64
	// ShardRounds counts the global boundary-exchange rounds of the
	// sharded execution mode (internal/shard only; 0 elsewhere).
	ShardRounds int64
	// BoundaryPins counts cross-shard boundary values exchanged between
	// shard engines (internal/shard only; 0 elsewhere).
	BoundaryPins int64

	// The layering-quality signal (Layph only; the drift controller in
	// internal/stream reads these to decide when the two-layer structure
	// has decayed enough to warrant a background full re-layer).

	// TouchedSubgraphRatio is the fraction of dense subgraphs whose lower
	// layers this update had to enter (0..1). The paper's whole advantage
	// is confinement — a rising ratio means community drift is defeating
	// the layering.
	TouchedSubgraphRatio float64
	// SkeletonFraction is the fraction of live vertices on the upper
	// layer (entries, exits, outliers) after this update (0..1). A fat
	// skeleton means the global iteration phase dominates.
	SkeletonFraction float64
	// ShortcutHitRate is the fraction of shortcut applications during
	// assignment that improved the target state (0..1; idempotent scheme —
	// the non-idempotent scheme applies every above-tolerance delta, so it
	// reports ~1 and the gauge is diagnostic only there).
	ShortcutHitRate float64
}

// Add accumulates another update's record into s: counters and durations
// sum, so a zero Stats is the identity. Streaming pipelines use it to
// aggregate per-micro-batch records over a stream's lifetime.
// PoolUtilization, a ratio rather than a counter, combines as the
// duration-weighted mean of the two records.
func (s *Stats) Add(o Stats) {
	if s.Duration+o.Duration > 0 {
		w := func(a, b float64) float64 {
			return (a*float64(s.Duration) + b*float64(o.Duration)) / float64(s.Duration+o.Duration)
		}
		s.PoolUtilization = w(s.PoolUtilization, o.PoolUtilization)
		s.TouchedSubgraphRatio = w(s.TouchedSubgraphRatio, o.TouchedSubgraphRatio)
		s.SkeletonFraction = w(s.SkeletonFraction, o.SkeletonFraction)
		s.ShortcutHitRate = w(s.ShortcutHitRate, o.ShortcutHitRate)
	}
	s.Activations += o.Activations
	s.Rounds += o.Rounds
	s.Resets += o.Resets
	s.SubgraphsParallel += o.SubgraphsParallel
	s.ReplayedBatches += o.ReplayedBatches
	s.ShardRounds += o.ShardRounds
	s.BoundaryPins += o.BoundaryPins
	s.Duration += o.Duration
}

// System is the interface every incremental engine in this repository
// implements (the five baselines and Layph). The lifecycle is: construct on
// a graph (which runs the batch computation once), then repeatedly mutate
// the graph via delta.Apply and pass the Applied record to Update.
type System interface {
	// Name identifies the engine ("ingress", "kickstarter", ...).
	Name() string
	// States returns the current converged states (live view; do not mutate).
	States() []float64
	// Update incrementally adjusts the states to the already-applied batch.
	Update(applied *delta.Applied) Stats
}

// TouchedSources returns the vertices whose out-edge semiring weights may
// have changed: sources of added/removed edges (PageRank-style weights
// depend on the source's degree, so any out-list change invalidates all of
// that source's weights) plus removed vertices.
func TouchedSources(applied *delta.Applied) map[graph.VertexID]struct{} {
	s := make(map[graph.VertexID]struct{})
	for _, e := range applied.AddedEdges {
		s[e.From] = struct{}{}
	}
	for _, e := range applied.RemovedEdges {
		s[e.From] = struct{}{}
	}
	for _, v := range applied.RemovedVertices {
		s[v] = struct{}{}
	}
	return s
}

// GrowVectors extends state/message vectors (and optional parent vectors) to
// n entries, filling new slots with fill (resp. NoParent).
func GrowVectors(x []float64, n int, fill float64) []float64 {
	for len(x) < n {
		x = append(x, fill)
	}
	return x
}

// GrowParents extends a parent vector to n entries filled with NoParent.
func GrowParents(p []graph.VertexID, n int) []graph.VertexID {
	for len(p) < n {
		p = append(p, engine.NoParent)
	}
	return p
}

// RefreshFrame rebuilds the out-lists of the touched source vertices against
// the current graph and returns the previous lists (needed by the
// non-idempotent scheme to cancel old contributions). It also grows the
// frame if the graph gained vertices.
func RefreshFrame(f *engine.Frame, g *graph.Graph, a algo.Algorithm, touched map[graph.VertexID]struct{}) map[graph.VertexID][]engine.WEdge {
	f.Thaw() // flat frames can't swap rows in place
	for len(f.Out) < g.Cap() {
		f.Out = append(f.Out, nil)
	}
	old := make(map[graph.VertexID][]engine.WEdge, len(touched))
	for u := range touched {
		old[u] = f.Out[u]
		if !g.Alive(u) {
			f.Out[u] = nil
			continue
		}
		es := g.Out(u)
		if len(es) == 0 {
			f.Out[u] = nil
			continue
		}
		l := make([]engine.WEdge, len(es))
		for i, e := range es {
			l[i] = engine.WEdge{To: e.To, W: a.EdgeWeight(g, u, e)}
		}
		f.Out[u] = l
	}
	return old
}

// SumDeduction computes the revision messages of the non-idempotent scheme:
// for every touched source u, cancel x_old(u)·w over the old out-list and
// compensate x_old(u)·w over the new out-list; root-message corrections
// cover added vertices. The returned activation count is the number of
// non-zero messages produced.
func SumDeduction(xOld []float64, oldLists map[graph.VertexID][]engine.WEdge,
	f *engine.Frame, a algo.Algorithm, applied *delta.Applied) (pending []float64, activations int64) {
	pending = make([]float64, len(f.Out))
	for u, old := range oldLists {
		xu := 0.0
		if int(u) < len(xOld) {
			xu = xOld[u]
		}
		if xu != 0 {
			for _, e := range old {
				if m := xu * e.W; m != 0 {
					pending[e.To] -= m
					activations++
				}
			}
			for _, e := range f.Out[u] {
				if m := xu * e.W; m != 0 {
					pending[e.To] += m
					activations++
				}
			}
		}
	}
	for _, v := range applied.AddedVertices {
		pending[v] += a.InitMessage(v)
	}
	// A removed vertex's root message was already delivered into the old
	// states via its (now cancelled) out-edges; the residue parked on the
	// vertex itself is cleared by the caller after the run.
	return pending, activations
}

// MinDeduction implements the idempotent scheme's cancellation/compensation:
// it tags the dependency subtrees hanging off deleted/reweighted dependency
// edges and deleted vertices, resets them to 0̄, and computes fresh offers
// for every reset vertex from its intact in-neighbors plus the root message.
//
// x and parent are mutated in place (they are the engine's memoized state).
// The returned pending vector and active list seed engine.Run; activations
// counts the offer computations (F applications during deduction).
type MinDeduction struct {
	Pending []float64
	Active  []graph.VertexID
	// ResetList holds the vertices whose states were invalidated; callers
	// need it to repair dependency parents after the propagation run.
	ResetList   []graph.VertexID
	Activations int64
}

// DeduceMin prepares an incremental min-semiring run. g must already
// reflect the post-batch graph.
func DeduceMin(x []float64, parent []graph.VertexID, g *graph.Graph,
	a algo.Algorithm, applied *delta.Applied) *MinDeduction {
	sr := a.Semiring()
	zero := sr.Zero()
	n := g.Cap()

	// Seed tags: dependency edges that disappeared or changed weight, and
	// removed vertices (their whole dependency subtree is invalid).
	tagged := make([]bool, n)
	var queue []graph.VertexID
	tag := func(v graph.VertexID) {
		if int(v) < n && !tagged[v] {
			tagged[v] = true
			queue = append(queue, v)
		}
	}
	for _, e := range applied.RemovedEdges {
		if int(e.To) < len(parent) && parent[e.To] == e.From {
			tag(e.To)
		}
	}
	for _, v := range applied.RemovedVertices {
		tag(v)
	}

	// Propagate tags down the dependency tree. children is built lazily only
	// when there is something to tag.
	var resets []graph.VertexID
	if len(queue) > 0 {
		children := make(map[graph.VertexID][]graph.VertexID, len(parent))
		for v, p := range parent {
			if p != engine.NoParent {
				children[p] = append(children[p], graph.VertexID(v))
			}
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			resets = append(resets, v)
			for _, c := range children[v] {
				tag(c)
			}
		}
	}

	d := &MinDeduction{Pending: make([]float64, n)}
	for i := range d.Pending {
		d.Pending[i] = zero
	}
	for _, v := range resets {
		x[v] = zero
		parent[v] = engine.NoParent
	}
	d.ResetList = resets

	inActive := make([]bool, n)
	activate := func(v graph.VertexID) {
		if !inActive[v] {
			inActive[v] = true
			d.Active = append(d.Active, v)
		}
	}

	// Fresh offers for reset vertices: intact in-neighbors propose
	// x(u) ⊗ w(u,v); the root message (m0) re-seeds sources.
	for _, v := range resets {
		if !g.Alive(v) {
			continue
		}
		if m0 := a.InitMessage(v); m0 != zero {
			d.Pending[v] = sr.Plus(d.Pending[v], m0)
		}
		for _, ie := range g.In(v) {
			u := ie.To
			if tagged[u] || x[u] == zero {
				continue
			}
			offer := sr.Times(x[u], a.EdgeWeight(g, u, graph.Edge{To: v, W: ie.W}))
			d.Activations++
			if offer != zero {
				d.Pending[v] = sr.Plus(d.Pending[v], offer)
			}
		}
		if d.Pending[v] != zero {
			activate(v)
		}
	}

	// Compensation for added/reweighted edges whose target survived: offer
	// the new candidate directly.
	for _, e := range applied.AddedEdges {
		u, v := e.From, e.To
		if !g.Alive(u) || !g.Alive(v) || tagged[v] {
			continue // reset targets already collected offers above
		}
		if x[u] == zero {
			continue
		}
		offer := sr.Times(x[u], a.EdgeWeight(g, u, graph.Edge{To: v, W: e.W}))
		d.Activations++
		if sr.Plus(x[v], offer) != x[v] {
			d.Pending[v] = sr.Plus(d.Pending[v], offer)
			activate(v)
		}
	}

	// Added vertices start from their algorithm-defined initial state.
	for _, v := range applied.AddedVertices {
		x[v] = a.InitState(v)
		if m0 := a.InitMessage(v); m0 != zero {
			d.Pending[v] = sr.Plus(d.Pending[v], m0)
			activate(v)
		}
	}
	return d
}

// RepairParents recomputes dependency parents for every vertex whose state
// differs between pre and post (plus explicitly listed vertices), by scanning
// in-edges for a witness u with x(u) ⊗ w(u,v) == x(v). It returns the number
// of repaired entries.
func RepairParents(x, pre []float64, extra []graph.VertexID, parent []graph.VertexID,
	g *graph.Graph, a algo.Algorithm) int {
	sr := a.Semiring()
	zero := sr.Zero()
	repair := func(v graph.VertexID) {
		if !g.Alive(v) || x[v] == zero {
			parent[v] = engine.NoParent
			return
		}
		parent[v] = engine.NoParent
		for _, ie := range g.In(v) {
			u := ie.To
			if x[u] == zero {
				continue
			}
			if sr.Times(x[u], a.EdgeWeight(g, u, graph.Edge{To: v, W: ie.W})) == x[v] {
				parent[v] = u
				return
			}
		}
	}
	count := 0
	done := make(map[graph.VertexID]struct{})
	for v := range x {
		if v < len(pre) && x[v] == pre[v] {
			continue
		}
		repair(graph.VertexID(v))
		done[graph.VertexID(v)] = struct{}{}
		count++
	}
	for _, v := range extra {
		if _, ok := done[v]; ok {
			continue
		}
		repair(v)
		count++
	}
	return count
}
