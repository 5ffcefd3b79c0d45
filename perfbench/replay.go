package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"layph"
	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/gen"
)

// replaySpec is a library-level closed loop: the benchmark calls
// delta.Apply and System.Update itself, one stationary forward/inverse
// batch pair after another. Stream, WAL and HTTP are bypassed.
type replaySpec struct {
	scale     float64 // of the UK stand-in preset
	algo      func() layph.Algorithm
	batchSize int
	// tol is the restart-check tolerance: the repository's 1e-6 for SSSP;
	// for PageRank the 1e-4 sum-semiring tolerance recovery verification
	// uses.
	tol float64
	// pairsPerSec is the pair rate on the reference host; a run replays
	// fixedCount(--seconds, pairsPerSec) pairs.
	pairsPerSec float64
}

// ingressBatches is how many of the first batches (whole pairs) a traced
// replay also runs through Ingress for core.acts_vs_ingress.
const ingressBatches = 8

var replaySSSP = replaySpec{
	scale: 1, algo: func() layph.Algorithm { return layph.SSSP(0) },
	batchSize: 1000, tol: 1e-6, pairsPerSec: 1.5, // ~325 ms a batch
}

var replayPR = replaySpec{
	scale: 0.25, algo: func() layph.Algorithm { return layph.PageRank(0.85, 1e-6) },
	batchSize: 250, tol: 1e-4, pairsPerSec: 2, // ~260 ms a batch
}

// setupLayph builds the engine setupReps times on g and returns the last
// one with the median build time: graph in memory to engine ready
// (community detection, layering, shortcuts, initial run).
func setupLayph(g *layph.Graph, alg layph.Algorithm) (*core.Layph, float64) {
	var l *core.Layph
	var secs []float64
	for i := 0; i < setupReps; i++ {
		l = nil // let the previous build be collected before timing the next
		runtime.GC()
		t0 := time.Now()
		l = layph.NewLayph(g, alg, layph.Config{})
		secs = append(secs, time.Since(t0).Seconds())
	}
	return l, median(secs)
}

func runReplay(o *options, sp replaySpec) (*result, error) {
	res := newResult()
	m := res.metrics
	alg := sp.algo()
	g := layph.GenerateCommunityGraph(gen.PresetConfig(gen.PresetUK, sp.scale))
	res.header["scale"] = sp.scale
	res.header["vertices"] = g.NumVertices()
	res.header["edges"] = g.NumEdges()
	res.header["batch_size"] = sp.batchSize
	pairs := fixedCount(o.seconds, sp.pairsPerSec, ingressBatches/2)
	res.header["pairs"] = pairs

	l, setup := setupLayph(g, alg)
	m["setup_s"] = setup

	bg := layph.NewBatchGenerator(o.seed)
	var (
		acc        coreAcc
		times      []float64
		applyMs    []float64
		updates    int
		busy       time.Duration
		inv        layph.Batch
		layphActs  int64
		firstBatch []layph.Batch // the batches core.acts_vs_ingress replays
	)
	stage := startStage()
	abort := abortAt(o)
	for k := 0; k < 2*pairs; k++ {
		var b layph.Batch
		if k%2 == 0 {
			// Pair boundary: the graph is back at its base here.
			if time.Now().After(abort) {
				return nil, tooSlow(o.workload, k/2, pairs)
			}
			b = bg.EdgeBatch(g, sp.batchSize, true)
		} else {
			b = inv
		}
		if o.traced() && k < ingressBatches {
			firstBatch = append(firstBatch, b)
		}
		t0 := time.Now()
		a := layph.ApplyBatch(g, b)
		t1 := time.Now()
		st := l.Update(a)
		t2 := time.Now()
		if k%2 == 0 {
			var err error
			if inv, err = inverseBatch(a); err != nil {
				return nil, err
			}
		}
		res.attempted++
		updates += len(b)
		busy += t2.Sub(t0)
		times = append(times, ms(t2.Sub(t0)))
		if o.traced() {
			acc.add(t2.Sub(t1), st, l)
			applyMs = append(applyMs, ms(t1.Sub(t0)))
			if k < ingressBatches {
				layphActs += st.Activations
			}
			id := o.tr.add(0, "replay.batch", int64(k+1), t0, t2)
			o.tr.add(id, "delta.Apply", int64(k+1), t0, t1)
			o.tr.add(id, "System.Update", int64(k+1), t1, t2)
		}
	}
	stage.finish(m, int64(len(times)))
	m["mem_peak_mb"] = peakRSSMB()

	m["update_ups"] = float64(updates) / busy.Seconds()
	m["batch_p50_ms"] = median(times)
	tl := tailOf(times)
	m["batch_tail_ms"] = tl.value
	m["batch.samples"] = float64(tl.n)
	m["batch.tail_pct"] = tl.pct

	want := layph.Run(g, alg, 0)
	got := l.States()[:g.Cap()]
	diff := algo.MaxStateDiff(got, want)
	m["check.max_diff"] = diff
	res.check(layph.StatesClose(got, want, sp.tol), "%s: states differ from restart on the final graph by %g (tol %g)", o.workload, diff, sp.tol)

	if o.traced() {
		acc.report(m, l)
		m["delta.apply_ms"] = mean(applyMs)
		m["trace.batch_self_ms"] = o.tr.selfMean("replay.batch")
		ing, err := ingressActs(g, alg, firstBatch)
		if err != nil {
			return nil, err
		}
		m["core.layph_acts"] = float64(layphActs)
		m["core.ingress_acts"] = float64(ing)
		m["core.acts_vs_ingress"] = float64(layphActs) / float64(max(ing, 1))
		bypassed(m, "stream.", "wal.", "serve.", "gen.")
	}
	return res, nil
}

// ingressActs replays batches through a fresh Ingress engine on a copy of
// the base graph and returns its activations. The replay must start at the
// base graph, which every even batch index of a stationary replay returns
// to.
func ingressActs(base *layph.Graph, alg layph.Algorithm, batches []layph.Batch) (int64, error) {
	if len(batches)%2 != 0 {
		return 0, fmt.Errorf("ingress comparison needs whole batch pairs, got %d batches", len(batches))
	}
	g := base.Clone()
	sys := layph.NewIngress(g, alg, 0)
	var acts int64
	for _, b := range batches {
		acts += sys.Update(layph.ApplyBatch(g, b)).Activations
	}
	return acts, nil
}

// bypassedMetrics lists the per-layer metrics of layers a workload does not
// call; bypassed reports them as 0, which is what those layers did.
var bypassedMetrics = []string{
	"stream.queue_wait_ms", "stream.publish_ms", "stream.batch_size", "stream.backlog_max",
	"wal.append_ms", "wal.after_ms", "wal.fsyncs", "wal.bytes_per_update", "wal.load_ms", "wal.replay_ms",
	"serve.push_p50_ms", "serve.push_tail_ms", "serve.read_p50_ms", "serve.read_tail_ms", "serve.recover_s",
	"serve.engine_busy", "serve.cpu_util",
	"gen.late_ms",
	"core.acts_vs_ingress", "core.layph_acts", "core.ingress_acts",
}

func bypassed(m map[string]float64, prefixes ...string) {
	for _, name := range bypassedMetrics {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				m[name] = 0
			}
		}
	}
}
