package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"layph/internal/algo"
	"layph/internal/community"
	"layph/internal/delta"
	"layph/internal/engine"
	"layph/internal/gen"
	"layph/internal/graph"
)

// twoBlockGraph builds two dense 12-cliques joined by one bridge — small
// enough to reason about individual structural transitions.
func twoBlockGraph() *graph.Graph {
	g := graph.New(24)
	for b := 0; b < 2; b++ {
		base := graph.VertexID(b * 12)
		for i := graph.VertexID(0); i < 12; i++ {
			for j := graph.VertexID(0); j < 12; j++ {
				if i != j {
					g.AddEdge(base+i, base+j, 1+float64((i+j)%4))
				}
			}
		}
	}
	g.AddEdge(11, 12, 2) // bridge
	return g
}

func TestRoleFlipInternalToEntry(t *testing.T) {
	g := twoBlockGraph()
	l := New(g, algo.NewSSSP(0), Options{Community: commCfg(12)})
	if len(l.subs) != 2 {
		t.Fatalf("want 2 dense subgraphs, got %d", len(l.subs))
	}
	// Find an internal vertex of block 2 and give it an external in-edge.
	var victim graph.VertexID
	for v := graph.VertexID(12); v < 24; v++ {
		if l.role[v] == RoleInternal {
			victim = v
			break
		}
	}
	if victim == 0 {
		t.Skip("no internal vertex (all boundary)")
	}
	applied := delta.Apply(g, delta.Batch{{Kind: delta.AddEdge, U: 0, V: victim, W: 9}})
	l.Update(applied)
	if !l.role[victim].IsEntry() {
		t.Fatalf("role after external in-edge: %v", l.role[victim])
	}
	// The new entry must have shortcuts and be on the skeleton.
	s := l.subs[l.subOf[victim]]
	if len(l.ShortcutsToInternal(s, victim))+len(l.ShortcutsToBoundary(s, victim)) == 0 {
		t.Fatal("new entry has no shortcuts")
	}
	// The flip is revised in place: one deduction for the new entry plus
	// revisions of the others, cheaper than re-deducing the subgraph (its
	// cost measured on a fresh copy).
	fresh := &Subgraph{ID: s.ID, origMembers: s.origMembers, proxies: s.proxies}
	if got, rebuild := l.LastActs["layered-update"], l.buildSubgraph(fresh, false); got >= rebuild {
		t.Fatalf("role flip cost %d layered-update activations, re-deducing the subgraph costs %d", got, rebuild)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And back: deleting the only external in-edge reverts it to internal.
	applied = delta.Apply(g, delta.Batch{{Kind: delta.DelEdge, U: 0, V: victim}})
	l.Update(applied)
	if l.role[victim] != RoleInternal {
		t.Fatalf("role after removing the external in-edge: %v", l.role[victim])
	}
	if len(l.ShortcutsToInternal(s, victim)) != 0 {
		t.Fatal("stale shortcut origin for demoted entry")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSubgraphDissolution(t *testing.T) {
	g := twoBlockGraph()
	l := New(g, algo.NewSSSP(0), Options{Community: commCfg(12)})
	// Rip out most intra edges of block 2 until it fails Definition 2.
	var batch delta.Batch
	for i := graph.VertexID(12); i < 24; i++ {
		for j := graph.VertexID(12); j < 24; j++ {
			if i != j && (i+j)%3 != 0 {
				batch = append(batch, delta.Update{Kind: delta.DelEdge, U: i, V: j})
			}
		}
	}
	applied := delta.Apply(g, batch)
	l.Update(applied)
	for v := graph.VertexID(12); v < 24; v++ {
		if g.Alive(v) && l.subOf[v] != NoSubgraph && l.subs[l.subOf[v]] == nil {
			t.Fatalf("vertex %d references dissolved subgraph", v)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{})
	if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-9) {
		t.Fatal("states diverge after dissolution")
	}
}

func TestProxyDecisionFlip(t *testing.T) {
	g := twoBlockGraph()
	// Give vertex 0 many parallel edges into block 2 to force an entry proxy.
	for _, v := range []graph.VertexID{13, 14, 15, 16} {
		g.AddEdge(0, v, 3)
	}
	l := New(g, algo.NewSSSP(0), Options{Community: commCfg(12)})
	sub2 := l.subOf[13]
	if sub2 == NoSubgraph {
		t.Skip("block 2 not dense")
	}
	hadProxy := l.hasProxy(l.entryProxy, sub2, 0)
	if !hadProxy {
		t.Skip("replication threshold not crossed on this layout")
	}
	// Delete the parallel edges: the proxy must be orphaned.
	applied := delta.Apply(g, delta.Batch{
		{Kind: delta.DelEdge, U: 0, V: 13},
		{Kind: delta.DelEdge, U: 0, V: 14},
		{Kind: delta.DelEdge, U: 0, V: 15},
	})
	l.Update(applied)
	if l.hasProxy(l.entryProxy, sub2, 0) {
		t.Fatal("proxy survived dropping below the replication threshold")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{})
	if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-9) {
		t.Fatal("states diverge after proxy flip")
	}
}

// Property: incremental shortcut maintenance must agree with full
// re-deduction after arbitrary churn — intra-subgraph weight changes,
// cross-subgraph edges that flip roles (new and retired entries, exit-only
// flips), and vertex additions and deletions — in the frame, the member and
// shortcut lists, and the memoized vectors and parents.
func TestIncrementalShortcutsMatchFullDeduction(t *testing.T) {
	f := func(seed int64) bool {
		for _, inter := range []float64{0.2, 1} {
			g, _ := gen.CommunityGraph(gen.CommunityConfig{
				Vertices: 240, MeanCommunity: 20, IntraDegree: 6, InterDegree: inter,
				Weighted: true, Seed: seed,
			})
			for _, mk := range []func() algo.Algorithm{
				func() algo.Algorithm { return algo.NewSSSP(0) },
				func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) },
				func() algo.Algorithm { return algo.NewCC() },
			} {
				l := New(g.Clone(), mk(), Options{})
				gLocal := l.Graph()
				genr := delta.NewGenerator(seed + 5)
				for b := 0; b < 4; b++ {
					batch := genr.EdgeBatch(gLocal, 30, true)
					if b%2 == 1 {
						batch = append(batch, genr.VertexBatch(gLocal, 2, 2, 3, true)...)
					}
					l.Update(delta.Apply(gLocal, batch))
					if err := checkShortcutsFresh(l); err != nil {
						t.Logf("seed %d inter %v %s batch %d: %v", seed, inter, l.a.Name(), b, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestLayeredUpdateActivationCeiling pins the deterministic cost of
// shortcut maintenance (layered-update activations, Threads 1) over a fixed
// replay whose batches flip roles in many subgraphs. Each ceiling is the
// in-place revision count ×1.1; the comments give what rebuilding every
// flipped subgraph from scratch costs on the same replay.
func TestLayeredUpdateActivationCeiling(t *testing.T) {
	for _, tc := range []struct {
		mk      func() algo.Algorithm
		ceiling int64
	}{
		{func() algo.Algorithm { return algo.NewSSSP(0) }, 115_660},                  // 105,146 ×1.1; rebuilding: 419,833
		{func() algo.Algorithm { return algo.NewPageRank(0.85, 1e-10) }, 11_616_027}, // 10,560,025 ×1.1; rebuilding: 11,914,175
	} {
		g, _ := gen.CommunityGraph(gen.CommunityConfig{
			Vertices: 2000, MeanCommunity: 40, IntraDegree: 8, InterDegree: 0.3,
			Weighted: true, Seed: 7,
		})
		l := New(g, tc.mk(), Options{Workers: 1})
		genr := delta.NewGenerator(7)
		var acts int64
		for b := 0; b < 4; b++ {
			l.Update(delta.Apply(g, genr.EdgeBatch(g, 200, true)))
			acts += l.LastActs["layered-update"]
		}
		t.Logf("%s: %d layered-update activations", l.a.Name(), acts)
		if acts > tc.ceiling {
			t.Errorf("%s: %d layered-update activations, ceiling %d", l.a.Name(), acts, tc.ceiling)
		}
	}
}

func TestVertexGrowthRemapsProxies(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 800, MeanCommunity: 40, IntraDegree: 8, InterDegree: 0.2,
		HubFraction: 0.03, HubDegree: 40, Weighted: true, Seed: 12,
	})
	l := New(g, algo.NewSSSP(0), Options{})
	if l.OfflineStats.Proxies == 0 {
		t.Skip("no proxies on this layout")
	}
	// Adding vertices forces the proxy segment past the new cap.
	genr := delta.NewGenerator(5)
	batch := genr.VertexBatch(g, 10, 0, 4, true)
	applied := delta.Apply(g, batch)
	l.Update(applied)
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := engine.RunBatch(g, algo.NewSSSP(0), engine.Options{})
	if !algo.StatesClose(l.States()[:g.Cap()], want.X, 1e-9) {
		t.Fatal("states diverge after proxy remap")
	}
}

// TestDriftChurnHoldsInvariantsAndGauges drives a frozen engine through
// community-migration churn and pins that every update leaves the layered
// structure invariant-clean (SelfCheck), that the layering-quality gauges
// the relayer consumes stay in range, and that the partition keeps no dead
// community ids between re-layers.
func TestDriftChurnHoldsInvariantsAndGauges(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: 600, MeanCommunity: 30, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 3,
	})
	l := New(g, algo.NewSSSP(0), Options{Workers: 2, SelfCheck: true})
	genr := delta.NewGenerator(17)
	for i := 0; i < 10; i++ {
		batch := genr.MigrationBatch(g, 15, 4, true)
		batch = append(batch, genr.EdgeBatch(g, 40, true)...)
		st := l.Update(delta.Apply(g, batch))
		if l.LastCheck != nil {
			t.Fatalf("batch %d: invariants violated: %v", i, l.LastCheck)
		}
		if st.TouchedSubgraphRatio < 0 || st.TouchedSubgraphRatio > 1 {
			t.Fatalf("batch %d: touched ratio out of range: %v", i, st.TouchedSubgraphRatio)
		}
		if st.SkeletonFraction <= 0 || st.SkeletonFraction > 1 {
			t.Fatalf("batch %d: skeleton fraction out of range: %v", i, st.SkeletonFraction)
		}
		if st.ShortcutHitRate < 0 || st.ShortcutHitRate > 1 {
			t.Fatalf("batch %d: shortcut hit rate out of range: %v", i, st.ShortcutHitRate)
		}
	}
	if live, ids := l.CommunityStats(); live <= 0 || live != ids {
		t.Fatalf("CommunityStats: live=%d ids=%d, want live == ids > 0", live, ids)
	}
}

func commCfg(maxSize int) (c community.Config) { c.MaxSize = maxSize; return c }

// checkShortcutsFresh re-deduces every subgraph from scratch on a copy and
// compares it with the maintained one: member lists, frame rows, every
// entry's shortcut vector and lists, each value within an absolute 1e-6.
// It also checks that each maintained compact parent is a valid witness,
// NoParent exactly when the value is the semiring zero, and that following
// parents reaches the entry within the frame size, so parent cycles (which
// ⊥-cancellation cannot cut) fail.
func checkShortcutsFresh(l *Layph) error {
	zero := l.sr.Zero()
	closeTo := func(a, b float64) bool {
		if math.IsInf(a, 0) || math.IsInf(b, 0) {
			return a == b
		}
		return math.Abs(a-b) <= 1e-6
	}
	sameList := func(a, b []graph.VertexID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	// sameEdges compares two edge lists as target→weight maps, a missing
	// target counting as the semiring zero.
	sameEdges := func(a, b []engine.WEdge) bool {
		m := make(map[graph.VertexID][2]float64)
		for _, e := range a {
			m[e.To] = [2]float64{e.W, zero}
		}
		for _, e := range b {
			w, ok := m[e.To]
			if !ok {
				w[0] = zero
			}
			w[1] = e.W
			m[e.To] = w
		}
		for _, w := range m {
			if !closeTo(w[0], w[1]) {
				return false
			}
		}
		return true
	}
	for _, s := range subgraphList(l.subs) {
		fresh := &Subgraph{ID: s.ID, origMembers: s.origMembers, proxies: s.proxies}
		l.buildSubgraph(fresh, false)
		if !sameList(s.Members, fresh.Members) || !sameList(s.Entries, fresh.Entries) ||
			!sameList(s.Exits, fresh.Exits) || !sameList(s.Internal, fresh.Internal) {
			return fmt.Errorf("sub %d: member lists differ from a fresh build", s.ID)
		}
		for ci := range s.Local.ids {
			if !sameEdges(s.Local.out[ci], fresh.Local.out[ci]) ||
				!sameEdges(s.Local.absorbOut[ci], fresh.Local.absorbOut[ci]) ||
				!sameEdges(s.Local.absorbIn[ci], fresh.Local.absorbIn[ci]) {
				return fmt.Errorf("sub %d: frame row %d differs from a fresh build", s.ID, ci)
			}
		}
		for ci := range s.scVec {
			if (s.scVec[ci] != nil) != (fresh.scVec[ci] != nil) {
				return fmt.Errorf("sub %d: compact %d memoized %v, fresh %v", s.ID, ci, s.scVec[ci] != nil, fresh.scVec[ci] != nil)
			}
		}
		for _, u := range s.Entries {
			cu := l.localIdx[u]
			mem, ref := s.scVec[cu], fresh.scVec[cu]
			for i := range mem {
				if !closeTo(mem[i], ref[i]) {
					return fmt.Errorf("sub %d entry %d idx %d: %v vs %v", s.ID, u, i, mem[i], ref[i])
				}
			}
			if !sameEdges(s.scToB[cu], fresh.scToB[cu]) || !sameEdges(s.scToI[cu], fresh.scToI[cu]) {
				return fmt.Errorf("sub %d entry %d: shortcut lists differ from a fresh build", s.ID, u)
			}
			if s.scParent == nil {
				continue
			}
			par := s.scParent[cu]
			for ci, p := range par {
				c := graph.VertexID(ci)
				if (mem[ci] == zero) != (p == engine.NoParent) {
					return fmt.Errorf("sub %d entry %d idx %d: value %v with parent %v", s.ID, u, ci, mem[ci], p)
				}
				if p == engine.NoParent {
					continue
				}
				eps := 1e-9 * (1 + math.Abs(mem[ci]))
				valid := false
				if p == graph.VertexID(cu) {
					for _, e := range s.Local.out[cu] {
						valid = valid || (e.To == c && math.Abs(l.sr.Times(l.sr.One(), e.W)-mem[ci]) <= eps)
					}
				}
				for _, e := range s.Local.absorbOut[p] {
					valid = valid || (e.To == c && math.Abs(l.sr.Times(mem[p], e.W)-mem[ci]) <= eps)
				}
				if !valid {
					return fmt.Errorf("sub %d entry %d idx %d: parent %d is no witness", s.ID, u, ci, p)
				}
				for steps := 0; p != graph.VertexID(cu) && p != engine.NoParent; steps++ {
					if steps == len(par) {
						return fmt.Errorf("sub %d entry %d idx %d: parent chain never reaches the entry", s.ID, u, ci)
					}
					p = par[p]
				}
			}
		}
	}
	return nil
}
