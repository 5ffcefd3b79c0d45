package community

import (
	"testing"
	"testing/quick"

	"layph/internal/gen"
	"layph/internal/graph"
)

func plantedGraph(seed int64, n, mean int) (*graph.Graph, []int) {
	return gen.CommunityGraph(gen.CommunityConfig{
		Vertices: n, MeanCommunity: mean, IntraDegree: 8, InterDegree: 0.15,
		Weighted: false, Seed: seed,
	})
}

func TestDetectRecoversPlantedStructure(t *testing.T) {
	g, planted := plantedGraph(3, 600, 30)
	p := Detect(g, Config{})
	if p.NumComms < 5 {
		t.Fatalf("found only %d communities", p.NumComms)
	}
	// Quality: detected partition should score high modularity and beat the
	// trivial all-in-one partition by far.
	q := Modularity(g, p)
	if q < 0.5 {
		t.Fatalf("modularity %v too low for a strongly planted graph", q)
	}
	// Agreement: most intra-planted-community edges should stay intra.
	intra, agree := 0, 0
	g.Edges(func(u, v graph.VertexID, w float64) {
		if planted[u] == planted[v] {
			intra++
			if p.Comm[u] == p.Comm[v] {
				agree++
			}
		}
	})
	if agree*10 < intra*7 {
		t.Fatalf("only %d/%d planted intra edges kept intra", agree, intra)
	}
}

func TestDetectPartitionValid(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := plantedGraph(seed, 300, 25)
		p := Detect(g, Config{MaxSize: 60})
		if len(p.Comm) != g.Cap() {
			return false
		}
		seenLive := true
		g.Vertices(func(v graph.VertexID) {
			if p.Comm[v] < 0 || int(p.Comm[v]) >= p.NumComms {
				seenLive = false
			}
		})
		if !seenLive {
			return false
		}
		for _, s := range p.Sizes() {
			if s > 60 {
				t.Logf("seed %d: community size %d exceeds cap", seed, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectDeadVertices(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	g.DeleteVertex(4)
	p := Detect(g, Config{})
	if p.Comm[4] != NoCommunity {
		t.Fatal("dead vertex got a community")
	}
	if p.Comm[0] < 0 || p.Comm[1] < 0 {
		t.Fatal("live vertices unassigned")
	}
}

func TestDetectEmptyAndSingleton(t *testing.T) {
	p := Detect(graph.New(0), Config{})
	if p.NumComms != 0 {
		t.Fatalf("empty graph: %d communities", p.NumComms)
	}
	g := graph.New(1)
	p = Detect(g, Config{})
	if p.NumComms != 1 || p.Comm[0] != 0 {
		t.Fatalf("singleton: %+v", p)
	}
}

func TestMembersAndSizes(t *testing.T) {
	g, _ := plantedGraph(9, 200, 25)
	p := Detect(g, Config{})
	members := p.Members()
	sizes := p.Sizes()
	total := 0
	for c, m := range members {
		if len(m) != sizes[c] {
			t.Fatalf("community %d: members %d != size %d", c, len(m), sizes[c])
		}
		total += len(m)
	}
	if total != g.NumVertices() {
		t.Fatalf("partition covers %d of %d vertices", total, g.NumVertices())
	}
	ids := p.SortedBySize()
	for i := 1; i < len(ids); i++ {
		if sizes[ids[i-1]] < sizes[ids[i]] {
			t.Fatal("SortedBySize not descending")
		}
	}
}

func TestModularityBounds(t *testing.T) {
	g, planted := plantedGraph(5, 300, 30)
	p := &Partition{Comm: make([]int32, g.Cap())}
	max := int32(0)
	for v, c := range planted {
		p.Comm[v] = int32(c)
		if int32(c) > max {
			max = int32(c)
		}
	}
	p.NumComms = int(max) + 1
	q := Modularity(g, p)
	if q <= 0 || q > 1 {
		t.Fatalf("planted modularity %v out of expected range", q)
	}
	// All-singletons partition scores lower than planted.
	sing := &Partition{Comm: make([]int32, g.Cap()), NumComms: g.Cap()}
	for v := range sing.Comm {
		sing.Comm[v] = int32(v)
	}
	if Modularity(g, sing) >= q {
		t.Fatal("singleton partition should not beat planted structure")
	}
}
