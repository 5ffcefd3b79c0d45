package layph

import (
	"strings"
	"testing"

	"layph/internal/algo"
	"layph/internal/enginetest"
	"layph/internal/graph"
	"layph/internal/inc"
)

func demoGraph() *Graph {
	return GenerateCommunityGraph(CommunityGraphConfig{
		Vertices: 400, MeanCommunity: 25, IntraDegree: 6, InterDegree: 0.4,
		Weighted: true, Seed: 7,
	})
}

func TestPublicAPIEndToEnd(t *testing.T) {
	g := demoGraph()
	sys := NewLayph(g, SSSP(0), Config{Threads: 2})
	gen := NewBatchGenerator(1)
	for i := 0; i < 3; i++ {
		batch := gen.EdgeBatch(g, 40, true)
		applied := ApplyBatch(g, batch)
		st := sys.Update(applied)
		if st.Duration <= 0 {
			t.Fatal("no duration recorded")
		}
		want := Run(g, SSSP(0), 2)
		if !StatesClose(sys.States()[:g.Cap()], want, 1e-6) {
			t.Fatalf("batch %d: incremental != restart", i)
		}
	}
}

func TestAllSystemConstructors(t *testing.T) {
	g := demoGraph()
	minSystems := []System{
		NewLayph(g.Clone(), SSSP(0), Config{}),
		NewIngress(g.Clone(), SSSP(0), 2),
		NewKickStarter(g.Clone(), SSSP(0), 2),
		NewRisGraph(g.Clone(), SSSP(0), 2),
	}
	sumSystems := []System{
		NewLayph(g.Clone(), PageRank(0.85, 1e-8), Config{}),
		NewIngress(g.Clone(), PageRank(0.85, 1e-8), 2),
		NewGraphBolt(g.Clone(), PageRank(0.85, 1e-8)),
		NewDZiG(g.Clone(), PageRank(0.85, 1e-8)),
	}
	names := map[string]bool{}
	for _, s := range append(minSystems, sumSystems...) {
		if len(s.States()) < g.Cap() {
			t.Fatalf("%s: short state vector", s.Name())
		}
		names[s.Name()] = true
	}
	for _, want := range []string{"layph", "ingress", "kickstarter", "risgraph", "graphbolt", "dzig"} {
		if !names[want] {
			t.Fatalf("missing system %q (got %v)", want, names)
		}
	}
}

// differentialConfig sizes the cross-engine fuzzer for the CI budget:
// full size normally, trimmed under -short (the race-detector job).
func differentialConfig() enginetest.DifferentialConfig {
	if testing.Short() {
		return enginetest.ShortDifferentialConfig()
	}
	return enginetest.DefaultDifferentialConfig()
}

// layphFactory builds Layph at a fixed thread count for the fuzzer; the
// Threads=1 twin is the sequential determinism baseline, Threads=8
// exercises the parallel lower layer.
func layphFactory(threads int) enginetest.Factory {
	return func(g *graph.Graph, a algo.Algorithm) inc.System {
		return NewLayph(g, a, Config{Threads: threads})
	}
}

// TestDifferentialFuzzMin cross-checks Layph (sequential and parallel)
// against Restart and the min-scheme baselines (Ingress, KickStarter,
// RisGraph) on random add/del edge+vertex sequences, after every batch.
func TestDifferentialFuzzMin(t *testing.T) {
	engines := []enginetest.NamedFactory{
		{Name: "layph-t1", New: layphFactory(1)},
		{Name: "layph-t8", New: layphFactory(8)},
		{Name: "ingress", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewIngress(g, a, 2) }},
		{Name: "kickstarter", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewKickStarter(g, a, 2) }},
		{Name: "risgraph", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewRisGraph(g, a, 2) }},
	}
	for name, mk := range enginetest.MinAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, engines, mk, differentialConfig())
		})
	}
}

// TestDifferentialFuzzSum is the sum-scheme counterpart: Layph vs Restart
// vs Ingress, GraphBolt and DZiG on PageRank/PHP.
func TestDifferentialFuzzSum(t *testing.T) {
	engines := []enginetest.NamedFactory{
		{Name: "layph-t1", New: layphFactory(1)},
		{Name: "layph-t8", New: layphFactory(8)},
		{Name: "ingress", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewIngress(g, a, 2) }},
		{Name: "graphbolt", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewGraphBolt(g, a) }},
		{Name: "dzig", New: func(g *graph.Graph, a algo.Algorithm) inc.System { return NewDZiG(g, a) }},
	}
	for name, mk := range enginetest.SumAlgorithms() {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, engines, mk, differentialConfig())
		})
	}
}

// TestDifferentialFuzzCSR drives Layph (sequential and parallel) through
// the CSR stress schedule: a near-zero compaction threshold makes the
// flat-view overlay compact several times mid-stream, heavy vertex churn
// deletes vertices whose rows are still baked into the flat arrays
// (tombstoned deletes), and the forced per-batch compaction makes Layph's
// entry proxies rewire against freshly rebuilt arrays. CheckCSR pins
// view/live coherence after every batch; states are still cross-checked
// against the restart oracle as usual.
func TestDifferentialFuzzCSR(t *testing.T) {
	engines := []enginetest.NamedFactory{
		{Name: "layph-t1", New: layphFactory(1)},
		{Name: "layph-t8", New: layphFactory(8)},
	}
	algos := map[string]enginetest.AlgoMaker{
		"sssp":     enginetest.MinAlgorithms()["sssp"],
		"pagerank": enginetest.SumAlgorithms()["pagerank"],
	}
	for name, mk := range algos {
		t.Run(name, func(t *testing.T) {
			enginetest.RunDifferential(t, engines, mk, enginetest.CSRDifferentialConfig())
		})
	}
}

// TestDifferentialFuzzDrift drives the community-migration churn schedules:
// every batch rewires a vertex cluster into a different community
// neighborhood, so the frozen layering drifts and subgraphs are rebuilt or
// dissolved batch after batch. Layph (sequential and parallel) is checked
// against the restart oracle and its structural invariants after every
// batch, on the default graph shape and on the drift bench's tight one.
func TestDifferentialFuzzDrift(t *testing.T) {
	engines := []enginetest.NamedFactory{
		{Name: "layph-frozen-t1", New: layphFactory(1)},
		{Name: "layph-frozen-t8", New: layphFactory(8)},
	}
	cfgs := []enginetest.DifferentialConfig{
		enginetest.DriftDifferentialConfig(),
		enginetest.DriftTightDifferentialConfig(),
	}
	if testing.Short() {
		for i := range cfgs {
			cfgs[i].Batches = 4
		}
	}
	algos := map[string]enginetest.AlgoMaker{
		"sssp":     enginetest.MinAlgorithms()["sssp"],
		"pagerank": enginetest.SumAlgorithms()["pagerank"],
	}
	for name, mk := range algos {
		t.Run(name, func(t *testing.T) {
			for _, cfg := range cfgs {
				enginetest.RunDifferential(t, engines, mk, cfg)
			}
		})
	}
}

func TestAlgorithmsExposed(t *testing.T) {
	for _, a := range []Algorithm{SSSP(0), BFS(0), PageRank(0.85, 1e-6), PHP(0, 0.8, 1e-6)} {
		if a.Name() == "" || a.Semiring() == nil {
			t.Fatalf("bad algorithm %T", a)
		}
	}
}

func TestReadEdgeListExposed(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 2\n1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestManualBatch(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	sys := NewIngress(g, BFS(0), 1)
	applied := ApplyBatch(g, Batch{
		{Kind: AddEdge, U: 1, V: 2, W: 1},
	})
	sys.Update(applied)
	if sys.States()[2] != 2 {
		t.Fatalf("x2 = %v", sys.States()[2])
	}
	UndoBatch(g, applied)
	if _, ok := g.HasEdge(1, 2); ok {
		t.Fatal("undo failed")
	}
}
