package main

import (
	"runtime"
	"time"

	"layph"
	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/gen"
)

// The drift workload replays community-migration churn (the migration plus
// edge-churn stream of the repository's drift experiment) through a
// stream with the relayer on and frozen memberships. Whole batches are
// pushed and drained one at a time, so relayer swap boundaries are
// deterministic. Each cycle starts a fresh engine on the base graph and
// replays the same driftBatches batches, so a cycle is the unit that
// repeats; a run replays fixedCount(--seconds, driftCyclesPerSec) cycles.
const (
	driftCyclesPerSec = 1.0 / 6 // ~85 ms a batch

	driftVertices = 16000
	driftBatches  = 64
	driftMigSize  = 15
	driftRewire   = 10
	driftChurn    = 20
)

func runDrift(o *options) (*result, error) {
	res := newResult()
	m := res.metrics
	alg := layph.SSSP(0)
	base, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices: driftVertices, MeanCommunity: 40, IntraDegree: 10, InterDegree: 0.05,
		HubFraction: 0.002, HubDegree: 12, Weighted: true, Seed: 1,
	})
	evolving := base.Clone()
	bg := layph.NewBatchGenerator(o.seed)
	var batches []layph.Batch
	for i := 0; i < driftBatches; i++ {
		b := bg.MigrationBatch(evolving, driftMigSize, driftRewire, true)
		b = append(b, bg.EdgeBatch(evolving, driftChurn, true)...)
		layph.ApplyBatch(evolving, b)
		batches = append(batches, b)
	}
	res.header["vertices"] = base.NumVertices()
	res.header["edges"] = base.NumEdges()
	res.header["batches_per_cycle"] = driftBatches
	cycles := fixedCount(o.seconds, driftCyclesPerSec, 1)
	res.header["cycles"] = cycles

	var (
		setups, times   []float64
		updates         int
		busy            time.Duration
		swaps, replayed int64
		rec             *streamRec
		eng             *core.Layph
		builds          []time.Duration
		finals          [][]float64 // each cycle's final states
		fg              *layph.Graph
	)
	stage := startStage()
	abort := abortAt(o)
	for cycle := 0; cycle < cycles; cycle++ {
		if time.Now().After(abort) {
			return nil, tooSlow(o.workload, cycle, cycles)
		}
		g := base.Clone()
		rec = &streamRec{tr: o.tr}
		rc := &layph.RelayerConfig{
			Build: func(g *layph.Graph) layph.System { return layph.NewLayph(g, alg, layph.Config{}) },
			// The repository drift experiment's thresholds: they sit above
			// the steady-state touched-ratio noise, so skeleton growth, the
			// actual drift, fires the triggers.
			TouchedRatioThreshold: 0.65, SkeletonGrowthFactor: 1.3, MinBatches: 16, SwapLagBatches: 4,
		}
		cfg := layph.StreamConfig{MaxBatch: 1 << 20, MaxDelay: -1, Relayer: rc, OnBatch: rec.onBatch}
		runtime.GC()
		t0 := time.Now()
		eng = layph.NewLayph(g, alg, layph.Config{})
		var sys layph.System = eng
		if o.traced() {
			sys = &timedSystem{inner: eng, rec: rec}
			cfg.Durability = &timedDurable{rec: rec}
			rc.Build = rec.timedBuild(func(g *layph.Graph) *core.Layph { return layph.NewLayph(g, alg, layph.Config{}) })
		}
		st := layph.NewStream(g, sys, cfg)
		setups = append(setups, time.Since(t0).Seconds())
		for _, b := range batches {
			t1 := time.Now()
			for _, u := range b {
				if err := st.Push(u); err != nil {
					return nil, err
				}
			}
			if err := st.Drain(); err != nil {
				return nil, err
			}
			el := time.Since(t1)
			res.attempted++
			times = append(times, ms(el))
			busy += el
			updates += len(b)
		}
		st.Close()
		rm := st.Metrics().Relayer
		swaps += rm.FullRelayers
		replayed += rm.ReplayedBatches
		builds = append(builds, rec.builds...)
		fg = st.Graph()
		finals = append(finals, st.Query().States[:fg.Cap()])
	}
	stage.finish(m, int64(len(times)))
	m["mem_peak_mb"] = peakRSSMB()
	// Every cycle replays the same batches on the base graph, so every
	// cycle ends on the same graph.
	want := layph.Run(fg, alg, 0)
	for cycle, got := range finals {
		diff := algo.MaxStateDiff(got, want)
		m["check.max_diff"] = max(m["check.max_diff"], diff)
		res.check(layph.StatesClose(got, want, 1e-6), "drift: cycle %d: final states differ from restart by %g", cycle, diff)
	}
	m["setup_s"] = median(setups)
	m["update_ups"] = float64(updates) / busy.Seconds()
	m["batch_p50_ms"] = median(times)
	tl := tailOf(times)
	m["batch_tail_ms"], m["batch.samples"], m["batch.tail_pct"] = tl.value, float64(tl.n), tl.pct
	m["relayer.swaps"] = float64(swaps) / float64(cycles)
	m["relayer.replayed_batches"] = float64(replayed) / float64(cycles)
	var bs []float64
	for _, b := range builds {
		bs = append(bs, b.Seconds())
	}
	m["relayer.build_s"] = mean(bs)

	if o.traced() {
		// The last cycle's records stand for the workload.
		rec.core.report(m, eng)
		var apply, publish, size []float64
		for _, b := range rec.batches {
			size = append(size, float64(b.size))
			if !b.updStart.IsZero() {
				apply = append(apply, ms(b.updStart.Sub(b.logEnd)))
				publish = append(publish, ms(b.at.Sub(b.updEnd)))
			}
		}
		m["delta.apply_ms"] = mean(apply)
		m["stream.publish_ms"] = mean(publish)
		m["stream.batch_size"] = mean(size)
		m["trace.batch_self_ms"] = o.tr.selfMean("stream.batch")
		bypassed(m, "wal.", "serve.", "gen.", "core.acts_vs_ingress", "core.layph_acts", "core.ingress_acts",
			"stream.queue_wait_ms", "stream.backlog_max")
	}
	return res, nil
}
