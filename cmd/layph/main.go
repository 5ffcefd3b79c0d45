// Command layph runs an algorithm incrementally over a graph, either
// replaying random update batches (the default mode) or serving a
// continuous update stream through the micro-batching pipeline (`layph
// serve`).
//
// Usage:
//
//	layph -preset UK -scale 0.25 -algo sssp -batches 5 -batchsize 5000
//	layph -graph web.el -algo pagerank -system ingress
//	layph serve -preset UK -scale 0.05 -algo sssp -rand 20000
//	graphgen ... | layph serve -graph web.el -algo sssp -input -
package main

import (
	"flag"
	"fmt"
	"os"

	"layph/internal/algo"
	"layph/internal/bench"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	runMain(os.Args[1:])
}

// engineFlags are the graph/workload/engine selection flags shared by
// the replay and serve modes.
type engineFlags struct {
	graphPath, preset, algoName, system string
	scale                               float64
	source                              uint
	threads                             int
}

func registerEngineFlags(fs *flag.FlagSet) *engineFlags {
	ef := &engineFlags{}
	fs.StringVar(&ef.graphPath, "graph", "", "edge-list file (overrides -preset)")
	fs.StringVar(&ef.preset, "preset", "UK", "generated preset: UK, IT, SK, WB")
	fs.Float64Var(&ef.scale, "scale", 0.25, "preset scale factor")
	fs.StringVar(&ef.algoName, "algo", "sssp", "sssp | bfs | cc | pagerank | php")
	fs.StringVar(&ef.system, "system", "layph", "layph | ingress | kickstarter | risgraph | graphbolt | dzig | restart")
	fs.UintVar(&ef.source, "source", 0, "source vertex for sssp/bfs/php")
	fs.IntVar(&ef.threads, "threads", 0, "worker threads (0 = GOMAXPROCS)")
	return ef
}

// build loads the selected graph, prints its stats, and constructs the
// selected engine over it (running the initial batch computation).
func (ef *engineFlags) build() (*graph.Graph, inc.System, *core.Layph) {
	g := ef.loadGraph()
	sys, layered := ef.buildOn(g)
	return g, sys, layered
}

// loadGraph loads the selected graph and prints its stats.
func (ef *engineFlags) loadGraph() *graph.Graph {
	g, err := loadGraph(ef.graphPath, ef.preset, ef.scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("graph: %s\n", graph.ComputeStats(g))
	return g
}

// buildOn constructs the selected engine over an existing graph (running
// the initial batch computation) — used by the durable serve path, where
// the graph may come from a recovered checkpoint instead of -graph.
func (ef *engineFlags) buildOn(g *graph.Graph) (inc.System, *core.Layph) {
	mk := makeAlgo(ef.algoName, graph.VertexID(ef.source))
	return bench.Build(bench.SystemKind(ef.system), g, mk, ef.threads)
}

// runMain is the original replay mode: pre-sized random batches, one
// Update per batch, per-batch statistics.
func runMain(args []string) {
	fs := flag.NewFlagSet("layph", flag.ExitOnError)
	ef := registerEngineFlags(fs)
	var (
		batches   = fs.Int("batches", 5, "number of update batches")
		batchSize = fs.Int("batchsize", 5000, "|dG| per batch")
		seed      = fs.Int64("seed", 42, "update stream seed")
	)
	fs.Parse(args)

	g, sys, layered := ef.build()
	if layered != nil {
		st := layered.OfflineStats
		fmt.Printf("offline: build=%.3fs initial=%.3fs subgraphs=%d proxies=%d shortcuts=%d\n",
			st.BuildSeconds, st.InitialSeconds, st.DenseSubgraphs, st.Proxies, st.ShortcutCount)
		upV, upE := layered.UpperLayerSize()
		fmt.Printf("skeleton: %d vertices, %d edges (graph: %d / %d)\n",
			upV, upE, g.NumVertices(), g.NumEdges())
	}

	genr := delta.NewGenerator(*seed)
	for i := 0; i < *batches; i++ {
		batch := genr.EdgeBatch(g, *batchSize, true)
		applied := delta.Apply(g, batch)
		st := sys.Update(applied)
		fmt.Printf("batch %2d: %8v  activations=%-10d rounds=%-4d resets=%d\n",
			i+1, st.Duration.Round(1000), st.Activations, st.Rounds, st.Resets)
		if layered != nil {
			fmt.Printf("          phases: %s\n", layered.LastPhases)
		}
	}
}

// makeAlgo returns a factory for the named workload (systems must not
// share algorithm instances).
func makeAlgo(name string, source graph.VertexID) bench.AlgoMaker {
	return func() algo.Algorithm {
		switch name {
		case "sssp":
			return algo.NewSSSP(source)
		case "bfs":
			return algo.NewBFS(source)
		case "cc":
			return algo.NewCC()
		case "pagerank":
			return algo.NewPageRank(0.85, 1e-6)
		case "php":
			return algo.NewPHP(source, 0.8, 1e-6)
		}
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", name)
		os.Exit(2)
		return nil
	}
}

func loadGraph(path, preset string, scale float64) (*graph.Graph, error) {
	if path == "" {
		return gen.Build(gen.Preset(preset), scale), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}
