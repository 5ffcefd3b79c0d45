package core

import (
	"fmt"

	"layph/internal/graph"
)

// CheckInvariants validates the layered structure; tests call it after
// construction and after every update. It returns the first violation.
//
// Concurrency contract: the check scans the whole structure (states,
// adjacency, subgraph maps) without locks, so it must only run at a merge
// barrier — when no pool task is in flight. It must not be called from
// inside a concurrent subgraph task: a sibling task's in-progress state
// writes would be reported as (phantom) violations. Every parallel phase
// of Update joins all of its tasks before returning, so the end of Update
// is always a safe point; Options.SelfCheck runs the check there
// automatically and records the result in Layph.LastCheck.
func (l *Layph) CheckInvariants() error {
	n := l.flatN()
	if len(l.flatIn) != n || len(l.upOut) != n || len(l.upIn) != n ||
		len(l.role) != n || len(l.subOf) != n || len(l.x) != n {
		return fmt.Errorf("vector length mismatch (n=%d)", n)
	}
	// Original vertices must map identically; proxies must carry hosts.
	for v := 0; v < n; v++ {
		isProxy := l.proxyHost[v] != NoHost
		if (v < l.origCap) == isProxy {
			return fmt.Errorf("vertex %d: origCap=%d but proxyHost=%v", v, l.origCap, l.proxyHost[v])
		}
	}
	// Flat rows match their derivation from the graph and the proxy
	// registries (a row left stale by a proxy change elsewhere breaks
	// message equivalence without upsetting any mirror below).
	for v := 0; v < n; v++ {
		want := l.computeFlatOut(graph.VertexID(v))
		if len(want) != len(l.flatOut[v]) {
			return fmt.Errorf("flat row of %d stale: %d edges, want %d", v, len(l.flatOut[v]), len(want))
		}
		wm := make(map[graph.VertexID]float64, len(want))
		for _, e := range want {
			wm[e.To] = e.W
		}
		for _, e := range l.flatOut[v] {
			if w, ok := wm[e.To]; !ok || w != e.W {
				return fmt.Errorf("flat edge (%d,%d,%v) stale", v, e.To, e.W)
			}
		}
	}
	// flatIn mirrors flatOut.
	inCount := 0
	for v := 0; v < n; v++ {
		for _, e := range l.flatOut[v] {
			found := false
			for _, r := range l.flatIn[e.To] {
				if r.To == graph.VertexID(v) && r.W == e.W {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("flat edge (%d,%d) missing from in-list", v, e.To)
			}
		}
		inCount += len(l.flatIn[v])
	}
	outCount := 0
	for v := 0; v < n; v++ {
		outCount += len(l.flatOut[v])
	}
	if inCount != outCount {
		return fmt.Errorf("flat in/out edge counts differ: %d vs %d", inCount, outCount)
	}
	// Dead vertices carry no flat edges.
	for v := 0; v < n; v++ {
		if !l.flatAlive(graph.VertexID(v)) {
			if len(l.flatOut[v]) != 0 {
				return fmt.Errorf("dead vertex %d has flat out-edges", v)
			}
			if l.role[v] != RoleDead {
				return fmt.Errorf("dead vertex %d has role %v", v, l.role[v])
			}
		}
	}
	// Roles consistent with flat adjacency and membership.
	for v := 0; v < n; v++ {
		if !l.flatAlive(graph.VertexID(v)) {
			continue
		}
		sv := l.subOf[v]
		if sv == NoSubgraph {
			if l.role[v] != RoleOutlier {
				return fmt.Errorf("vertex %d: no subgraph but role %v", v, l.role[v])
			}
			continue
		}
		if _, ok := l.subs[sv]; !ok {
			return fmt.Errorf("vertex %d references missing subgraph %d", v, sv)
		}
		entry, exit := false, false
		for _, e := range l.flatIn[v] {
			if l.subOf[e.To] != sv {
				entry = true
			}
		}
		for _, e := range l.flatOut[v] {
			if l.subOf[e.To] != sv {
				exit = true
			}
		}
		want := RoleInternal
		switch {
		case entry && exit:
			want = RoleEntryExit
		case entry:
			want = RoleEntry
		case exit:
			want = RoleExit
		}
		if l.role[v] != want {
			return fmt.Errorf("vertex %d (sub %d): role %v, want %v", v, sv, l.role[v], want)
		}
	}
	// Upper layer: internal vertices never appear; lists match recomputation.
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		if !l.flatAlive(vid) || !l.onUp(vid) {
			if len(l.upOut[v]) != 0 {
				return fmt.Errorf("off-skeleton vertex %d has up out-edges", v)
			}
			continue
		}
		want := l.computeUpOut(vid)
		if len(want) != len(l.upOut[v]) {
			return fmt.Errorf("vertex %d: up out-list stale (%d vs %d edges)", v, len(l.upOut[v]), len(want))
		}
		wm := make(map[graph.VertexID]float64, len(want))
		for _, e := range want {
			wm[e.To] = e.W
		}
		for _, e := range l.upOut[v] {
			if w, ok := wm[e.To]; !ok || w != e.W {
				return fmt.Errorf("vertex %d: up edge (%d,%v) stale", v, e.To, e.W)
			}
		}
		for _, e := range l.upOut[v] {
			if l.role[e.To] == RoleInternal {
				return fmt.Errorf("up edge (%d,%d) targets an internal vertex", v, e.To)
			}
		}
	}
	// Subgraph member lists consistent.
	for c, s := range l.subs {
		if s.ID != c {
			return fmt.Errorf("subgraph id mismatch %d vs %d", s.ID, c)
		}
		for _, v := range s.Members {
			if l.subOf[v] != c {
				return fmt.Errorf("member %d of sub %d has subOf %d", v, c, l.subOf[v])
			}
			if !l.flatAlive(v) {
				return fmt.Errorf("dead member %d in sub %d", v, c)
			}
		}
		if len(s.Entries)+len(s.Exits) == 0 && len(s.Members) > 0 {
			// A dense subgraph completely disconnected from the rest is
			// possible but suspicious enough to flag only if it has
			// external edges in the graph; skip.
			continue
		}
	}
	return nil
}
