package main

import (
	"errors"

	"layph"
)

// inverseBatch returns the batch that undoes a's net effect: every edge the
// batch removed or reweighted comes back with its old weight, and every
// edge it added is deleted. Applied after the batch, it returns the edge
// set to what it was before, so a forward/inverse pair keeps a replay
// stationary. Batches that add or remove vertices are refused.
func inverseBatch(a *layph.Applied) (layph.Batch, error) {
	if len(a.AddedVertices) > 0 || len(a.RemovedVertices) > 0 {
		return nil, errors.New("inverseBatch: vertex transitions are not invertible here")
	}
	type key struct{ u, v layph.VertexID }
	restored := make(map[key]bool, len(a.RemovedEdges))
	b := make(layph.Batch, 0, len(a.AddedEdges)+len(a.RemovedEdges))
	for _, e := range a.RemovedEdges {
		restored[key{e.From, e.To}] = true
		b = append(b, layph.Update{Kind: layph.AddEdge, U: e.From, V: e.To, W: e.W})
	}
	for _, e := range a.AddedEdges {
		// A reweighted edge is restored by the add above.
		if !restored[key{e.From, e.To}] {
			b = append(b, layph.Update{Kind: layph.DelEdge, U: e.From, V: e.To})
		}
	}
	return b, nil
}

// stationaryPairs returns pairs forward/inverse batch pairs, forward first:
// each forward batch is a random edge batch of size updates drawn against
// base and is followed by its exact inverse, so the graph is back at base
// after every pair, and, flattened, however the sequence is cut into
// micro-batches. base is not modified.
func stationaryPairs(base *layph.Graph, seed int64, pairs, size int) ([]layph.Batch, error) {
	g := base.Clone()
	gen := layph.NewBatchGenerator(seed)
	out := make([]layph.Batch, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		fwd := gen.EdgeBatch(g, size, true)
		inv, err := inverseBatch(layph.ApplyBatch(g, fwd))
		if err != nil {
			return nil, err
		}
		layph.ApplyBatch(g, inv)
		out = append(out, fwd, inv)
	}
	return out, nil
}
