package main

import (
	"sort"
	"sync"
	"time"

	"layph"
	"layph/internal/core"
	"layph/internal/stream"
	"layph/internal/wal"
)

// coreAcc accumulates what Layph publishes after each Update: the phase
// timings (LastPhases), the per-phase activations (LastActs) and the
// returned inc.Stats.
type coreAcc struct {
	n                                  int
	wall, layered, upload, lup, assign time.Duration
	actsLayered, actsOnline            int64
	rounds, resets, poolTasks          int64
	poolBusy                           float64 // Σ utilization × engine time, in seconds
	engine                             time.Duration
	touched, hit                       float64
	skelFirst, skelLast                float64
}

// add folds one Update: wall is the benchmark's own timing of the call.
func (c *coreAcc) add(wall time.Duration, st layph.Stats, l *core.Layph) {
	if c.n == 0 {
		c.skelFirst = st.SkeletonFraction
	}
	c.n++
	c.skelLast = st.SkeletonFraction
	c.wall += wall
	if p := l.LastPhases; p != nil {
		c.layered += p.Get("layered-update")
		c.upload += p.Get("upload")
		c.lup += p.Get("lup-iteration")
		c.assign += p.Get("assignment")
	}
	c.actsLayered += l.LastActs["layered-update"]
	c.actsOnline += l.LastActs["online"]
	c.rounds += int64(st.Rounds)
	c.resets += int64(st.Resets)
	c.poolTasks += st.SubgraphsParallel
	c.poolBusy += st.PoolUtilization * st.Duration.Seconds()
	c.engine += st.Duration
	c.touched += st.TouchedSubgraphRatio
	c.hit += st.ShortcutHitRate
}

// report writes the core.* metrics: per-Update means, the skeleton
// fraction at the first and last Update, and the engine's offline record.
func (c *coreAcc) report(m map[string]float64, l *core.Layph) {
	n := float64(max(c.n, 1))
	m["core.layered_update_ms"] = ms(c.layered) / n
	m["core.upload_ms"] = ms(c.upload) / n
	m["core.lup_iteration_ms"] = ms(c.lup) / n
	m["core.assignment_ms"] = ms(c.assign) / n
	m["core.other_ms"] = ms(c.wall-c.layered-c.upload-c.lup-c.assign) / n
	m["core.acts.layered_update"] = float64(c.actsLayered) / n
	m["core.acts.online"] = float64(c.actsOnline) / n
	m["core.rounds"] = float64(c.rounds) / n
	m["core.resets"] = float64(c.resets) / n
	m["core.pool_tasks"] = float64(c.poolTasks) / n
	m["core.pool_util"] = 0
	if c.engine > 0 {
		m["core.pool_util"] = c.poolBusy / c.engine.Seconds()
	}
	m["core.touched_ratio"] = c.touched / n
	m["core.shortcut_hit_rate"] = c.hit / n
	m["core.skeleton_frac_first"] = c.skelFirst
	m["core.skeleton_frac_last"] = c.skelLast
	m["core.build_s"] = l.OfflineStats.BuildSeconds
	m["core.initial_s"] = l.OfflineStats.InitialSeconds
	m["core.shortcuts"] = float64(l.OfflineStats.ShortcutCount)
}

// batchRec is the life of one stream micro-batch as the injected
// decorators see it on the stream's worker goroutine.
type batchRec struct {
	seq                  uint64
	size                 int
	logStart, logEnd     time.Time
	updStart, updEnd     time.Time
	afterStart, afterEnd time.Time
	at                   time.Time // Snapshot.At
}

// published is one snapshot as OnBatch reported it.
type published struct {
	seq     uint64
	updates uint64
	at      time.Time
	engine  time.Duration // the engine's own Update time (inc.Stats)
}

// streamRec collects what a stream publishes through OnBatch and, in a
// traced run, what the timing System, Durable and Build decorators see.
// Every method runs on the stream's worker goroutine except the timedBuild
// hook (the relayer's background goroutine); the mutex orders both against the
// benchmark's reads.
type streamRec struct {
	mu      sync.Mutex
	tr      *tracer
	pubs    []published
	cur     *batchRec
	batches []*batchRec
	core    coreAcc
	builds  []time.Duration
	// backlog, when set (traced runs), samples accepted-but-unapplied
	// updates after every batch.
	backlog    func() int64
	backlogMax int64
}

// onBatch is the StreamConfig.OnBatch hook.
func (r *streamRec) onBatch(b stream.BatchResult) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pubs = append(r.pubs, published{seq: b.Seq, updates: b.Snap.Updates, at: b.Snap.At, engine: b.Stats.Duration})
	if r.tr == nil {
		return
	}
	c := r.cur
	if c == nil {
		c = &batchRec{}
	}
	r.cur = nil
	c.seq, c.size, c.at = b.Seq, b.Size, b.Snap.At
	r.batches = append(r.batches, c)
	if r.backlog != nil {
		r.backlogMax = max(r.backlogMax, r.backlog())
	}
	start := c.logStart
	if start.IsZero() {
		start = c.updStart
	}
	if start.IsZero() {
		start = c.at
	}
	trace := int64(c.seq)
	id := r.tr.add(0, "stream.batch", trace, start, now)
	if !c.logStart.IsZero() {
		r.tr.add(id, "Durable.LogBatch", trace, c.logStart, c.logEnd)
		r.tr.add(id, "Durable.AfterBatch", trace, c.afterStart, c.afterEnd)
	}
	if !c.updStart.IsZero() {
		r.tr.add(id, "System.Update", trace, c.updStart, c.updEnd)
		r.tr.add(id, "stream.publish", trace, c.updEnd, c.at)
	}
}

// current returns the worker's in-flight batch record (mu held).
func (r *streamRec) current() *batchRec {
	if r.cur == nil {
		r.cur = &batchRec{}
	}
	return r.cur
}

// pubsCopy returns the snapshots published so far.
func (r *streamRec) pubsCopy() []published {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]published(nil), r.pubs...)
}

// coveringSnap returns the first published snapshot holding cumulative
// update count upd (pubs ascending by updates).
func coveringSnap(pubs []published, upd uint64) (published, bool) {
	i := sort.Search(len(pubs), func(i int) bool { return pubs[i].updates >= upd })
	if i == len(pubs) {
		return published{}, false
	}
	return pubs[i], true
}

// timedSystem is the timing System decorator: it times each Update and
// reads the records Layph publishes after it.
type timedSystem struct {
	inner *core.Layph
	rec   *streamRec
}

func (s *timedSystem) Name() string      { return s.inner.Name() }
func (s *timedSystem) States() []float64 { return s.inner.States() }

// CommunityStats forwards the gauge the stream's relayer type-asserts for,
// so wrapping does not change which triggers can fire.
func (s *timedSystem) CommunityStats() (int, int) { return s.inner.CommunityStats() }

func (s *timedSystem) Update(a *layph.Applied) layph.Stats {
	start := time.Now()
	st := s.inner.Update(a)
	end := time.Now()
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.core.add(end.Sub(start), st, s.inner)
	c := r.current()
	if c.updStart.IsZero() {
		c.updStart, c.updEnd = start, end
	} else {
		// A second Update in one batch is the relayer replaying the
		// batch tail onto a freshly built engine before its swap.
		r.tr.add(0, "relayer.replay", int64(c.seq), start, end)
	}
	return st
}

// timedDurable is the timing Durable decorator around the WAL. With a nil
// log it only timestamps the batch boundaries of a stream without a WAL.
type timedDurable struct {
	log *wal.Log
	rec *streamRec
}

func (d *timedDurable) LogBatch(seq uint64, b layph.Batch) error {
	start := time.Now()
	var err error
	if d.log != nil {
		err = d.log.LogBatch(seq, b)
	}
	end := time.Now()
	d.rec.mu.Lock()
	c := d.rec.current()
	c.seq, c.logStart, c.logEnd = seq, start, end
	d.rec.mu.Unlock()
	return err
}

func (d *timedDurable) AfterBatch(seq, updates uint64, g *layph.Graph, states []float64) error {
	start := time.Now()
	var err error
	if d.log != nil {
		err = d.log.AfterBatch(seq, updates, g, states)
	}
	end := time.Now()
	d.rec.mu.Lock()
	c := d.rec.current()
	c.afterStart, c.afterEnd = start, end
	d.rec.mu.Unlock()
	return err
}

// timedBuild wraps a relayer Build hook: it times each background build and
// wraps the engine it returns so its Updates are recorded too.
func (r *streamRec) timedBuild(build func(*layph.Graph) *core.Layph) func(*layph.Graph) layph.System {
	return func(g *layph.Graph) layph.System {
		start := time.Now()
		l := build(g)
		end := time.Now()
		r.mu.Lock()
		r.builds = append(r.builds, end.Sub(start))
		r.mu.Unlock()
		r.tr.add(0, "relayer.Build", 0, start, end)
		return &timedSystem{inner: l, rec: r}
	}
}
