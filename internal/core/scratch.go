package core

import (
	"layph/internal/engine"
	"layph/internal/graph"
)

// vset is an epoch-stamped dense vertex set. Membership tests and inserts
// are O(1) array probes, reset is O(1) (an epoch bump), and iteration over
// list is in insertion order — which, unlike Go map iteration, makes every
// pass over the set reproducible between runs. The stamp array grows on
// demand because the flat ID space can grow mid-update (new vertices,
// fresh proxies).
type vset struct {
	stamp []uint32
	epoch uint32
	list  []graph.VertexID
}

// reset empties the set and ensures capacity for n vertices.
func (s *vset) reset(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n+n/2)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // epoch counter wrapped: stamps are ambiguous, wipe them
		clear(s.stamp)
		s.epoch = 1
	}
	s.list = s.list[:0]
}

// add inserts v, growing the stamp array if v is beyond it. Reports whether
// v was newly inserted.
func (s *vset) add(v graph.VertexID) bool {
	if int(v) >= len(s.stamp) {
		grown := make([]uint32, int(v)+1+int(v)/2)
		copy(grown, s.stamp)
		s.stamp = grown
	}
	if s.stamp[v] == s.epoch {
		return false
	}
	s.stamp[v] = s.epoch
	s.list = append(s.list, v)
	return true
}

func (s *vset) has(v graph.VertexID) bool {
	return int(v) < len(s.stamp) && s.stamp[v] == s.epoch
}

// updScratch holds buffers reused across Update calls so a steady-state
// batch allocates no per-vertex maps: the former map-based working sets are
// epoch-stamped dense sets, and the O(n) vectors of the online phases are
// recycled. Update processes one batch at a time and every phase joins its
// pool tasks before the next starts; within a fan-out the buffers are
// either read-only (snapshots) or written at disjoint member indices, so
// plain reuse is race-free.
type updScratch struct {
	touched    vset
	dirtyRoles vset
	upDirty    vset
	oldRoles   []Role // pre-batch roles, parallel to dirtyRoles.list

	// oldSeen guards first-touch snapshots of pre-batch out-lists; oldRows
	// carries the rows (parallel to oldSeen.list). Both are exposed via
	// layeredDiff and only valid for the Update call that filled them.
	oldSeen vset
	oldRows [][]engine.WEdge

	// updateMin working sets.
	repair    vset
	inActive  vset
	changedUp vset
	offerSet  vset

	// O(n) vectors. Callers re-zero (or re-fill) the prefix they use.
	pending   []float64
	fromLocal []float64
	xPre      []float64
	xSnap     []float64
	m0        []float64
	offerVal  []float64
	tagged    []bool

	// Dependency-forest CSR for ⊥-cancellation (children of v =
	// childBuf[childOff[v]:childOff[v+1]]), rebuilt per update that resets.
	childOff []int32
	childBuf []graph.VertexID
}

// floatBuf returns a zeroed n-sized view of one of the reusable vectors.
func floatBuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n+n/2)
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// filledBuf is floatBuf with a custom fill value (e.g. the semiring zero).
func filledBuf(buf *[]float64, n int, fill float64) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n+n/2)
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = fill
	}
	return b
}

// copyBuf returns a view of the buffer holding a copy of src.
func copyBuf(buf *[]float64, src []float64) []float64 {
	if cap(*buf) < len(src) {
		*buf = make([]float64, len(src)+len(src)/2)
	}
	b := (*buf)[:len(src)]
	copy(b, src)
	return b
}

func boolBuf(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n+n/2)
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// depChildren builds a CSR over the dependency forest: two counting passes
// over parent, no per-parent slice allocations. children(v) is
// childBuf[childOff[v]:childOff[v+1]].
func (sc *updScratch) depChildren(parent []graph.VertexID) {
	n := len(parent)
	if cap(sc.childOff) < n+1 {
		sc.childOff = make([]int32, n+1+n/2)
	}
	off := sc.childOff[:n+1]
	for i := range off {
		off[i] = 0
	}
	for _, p := range parent {
		if p != engine.NoParent {
			off[p+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	if cap(sc.childBuf) < int(off[n]) {
		sc.childBuf = make([]graph.VertexID, int(off[n])+int(off[n])/2)
	}
	buf := sc.childBuf[:off[n]]
	// Fill with a moving cursor per parent, then shift the offsets back
	// down one slot: after the fill off[p] is the END of p's segment,
	// which is exactly the start of segment p+1.
	for v, p := range parent {
		if p != engine.NoParent {
			buf[off[p]] = graph.VertexID(v)
			off[p]++
		}
	}
	for i := n; i > 0; i-- {
		off[i] = off[i-1]
	}
	off[0] = 0
	sc.childOff = off
	sc.childBuf = buf
}

// children returns v's dependency children from the last depChildren build.
func (sc *updScratch) children(v graph.VertexID) []graph.VertexID {
	return sc.childBuf[sc.childOff[v]:sc.childOff[v+1]]
}
