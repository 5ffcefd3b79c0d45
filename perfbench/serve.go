package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"layph"
	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/gen"
	"layph/internal/wal"
)

// The serve workload drives the whole daemon: a durable stream (fsync per
// batch, default checkpoint cadence) behind the HTTP server, reached over
// in-memory connections (pipeListener).
const (
	serveScale = 0.25
	serveMeta  = "algo=sssp system=layph bench=serve"
	// The sizing below was measured over TCP loopback. Over in-memory
	// connections ten runs on the reference host gave serve.engine_busy
	// 0.46-0.54 (median 0.51) and a saturation median of 10700 updates/s.
	//
	// The open-loop stage offers serveRate updates/s in pushSize-update
	// requests on one connection, which keeps the engine about half busy
	// (serve.engine_busy 0.49-0.54 on the reference host), and readRate
	// /query requests/s on a second connection: one-vertex point reads,
	// every tenth request a top-10. At that rate the reads take about 1.5%
	// of the host's CPU (serve.cpu_util 0.41 against 0.39 with one read a
	// second) and move neither engine_busy nor freshness beyond run-to-run
	// noise; 400 reads/s took 6%.
	serveRate = 2000
	pushSize  = 20
	readRate  = 100
	// The saturation stage's closed-loop writer pushes fixedCount(0.4 ×
	// --seconds, satUpsPerSec/pushSize) requests of pushSize updates,
	// about 10000 updates/s on the reference host. The engine, not the
	// request size, bounds it: 100-update requests ingested within 1.5% of
	// 20-update ones.
	satUpsPerSec = 10000
	// The crash-recover stage reopens a directory holding recoverBatches
	// logged batches of recoverBatchSize updates past its only checkpoint.
	recoverBatches   = 24
	recoverBatchSize = 250
	// streamPairs is the number of stationary pairs the pushed update
	// stream cycles through.
	streamPairs = 128
	streamBatch = 500
)

type daemon struct {
	eng    *core.Layph
	log    *wal.Log
	st     *layph.Stream
	srv    *layph.Server
	hs     *http.Server
	ln     *pipeListener
	served chan error // hs.Serve's return
	dir    string
}

// baseURL is the base URL every request goes to; the host names no socket,
// since the client dials the daemon's pipeListener.
const baseURL = "http://perfbench"

// startDaemon sets up the served engine on a copy of base and returns the
// time from graph in memory to listener up: layering and initial run, WAL
// start checkpoint, stream with its first snapshot, HTTP listener.
func startDaemon(o *options, base *layph.Graph, alg layph.Algorithm, rec *streamRec) (*daemon, float64, error) {
	g := base.Clone()
	dir, err := os.MkdirTemp(o.tmp, "perfbench-serve-")
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	eng := layph.NewLayph(g, alg, layph.Config{})
	log, rc, err := wal.Open(dir, wal.Config{Meta: serveMeta})
	if err != nil {
		return nil, 0, err
	}
	if rc != nil {
		log.Close()
		return nil, 0, fmt.Errorf("serve: %s is not a fresh directory", dir)
	}
	if err := log.Start(0, 0, g, eng.States()); err != nil {
		log.Close()
		return nil, 0, err
	}
	cfg := layph.StreamConfig{OnBatch: rec.onBatch, Durability: log}
	var sys layph.System = eng
	if o.traced() {
		sys = &timedSystem{inner: eng, rec: rec}
		cfg.Durability = &timedDurable{log: log, rec: rec}
	}
	st := layph.NewStream(g, sys, cfg)
	// The server's own handler behind a net/http server, as Server.Start
	// runs it, but listening on in-memory connections instead of TCP.
	srv := layph.NewServer(st, layph.ServerConfig{})
	srv.AttachDurability(log, nil)
	d := &daemon{eng: eng, log: log, st: st, srv: srv, dir: dir,
		hs: &http.Server{Handler: srv.Handler()}, ln: newPipeListener(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(d.ln) }()
	secs := time.Since(t0).Seconds()
	return d, secs, nil
}

// shutdown drains the stream and stops the HTTP server, in the order
// Server.Shutdown uses for a started server, then closes the log.
func (d *daemon) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// reqRec is one open-loop request, timed from when it was due.
type reqRec struct {
	due, sent, done time.Time
	ok              bool
	cum             uint64 // pushes: cumulative updates once this one is applied
}

// openLoop calls do(i) at start + i*interval until end, never waiting for
// the system beyond the one connection it owns: a request that falls
// behind is sent at once and still timed from its due time.
func openLoop(start, end time.Time, interval time.Duration, do func(i int) (ok bool, cum uint64)) []reqRec {
	var recs []reqRec
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return recs
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ok, cum := do(i)
		recs = append(recs, reqRec{due: due, sent: sent, done: time.Now(), ok: ok, cum: cum})
	}
}

// newClient returns a client holding at most one connection to the daemon.
func newClient(ln *pipeListener) *http.Client {
	return &http.Client{
		Transport: &http.Transport{DialContext: ln.dial, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// push POSTs updates in the text wire format and returns how many the
// server accepted.
func push(c *http.Client, url string, b layph.Batch) (int, error) {
	var body bytes.Buffer
	if err := layph.WriteUpdates(&body, b); err != nil {
		return 0, err
	}
	resp, err := c.Post(url+"/push", "text/plain", &body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var pr struct {
		Accepted int `json:"accepted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&pr)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if resp.StatusCode != http.StatusOK {
		return pr.Accepted, fmt.Errorf("push: status %d", resp.StatusCode)
	}
	return pr.Accepted, err
}

func get(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query: status %d", resp.StatusCode)
	}
	return err
}

// firstErrs prints the first error of each request kind, so a run whose
// requests fail says why.
type firstErrs struct {
	mu   sync.Mutex
	seen map[string]bool
}

var reqErrs = &firstErrs{seen: map[string]bool{}}

func (f *firstErrs) note(kind string, err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.seen[kind] {
		f.seen[kind] = true
		fmt.Fprintf(os.Stderr, "perfbench: serve: first failed %s request: %v\n", kind, err)
	}
}

// cycler hands out the pushed update stream in order, wrapping around.
type cycler struct {
	seq layph.Batch
	pos int
}

func (c *cycler) next(n int) layph.Batch {
	out := make(layph.Batch, 0, n)
	for len(out) < n {
		k := min(n-len(out), len(c.seq)-c.pos)
		out = append(out, c.seq[c.pos:c.pos+k]...)
		c.pos = (c.pos + k) % len(c.seq)
	}
	return out
}

func runServe(o *options) (*result, error) {
	res := newResult()
	m := res.metrics
	alg := layph.SSSP(0)
	base := layph.GenerateCommunityGraph(gen.PresetConfig(gen.PresetUK, serveScale))
	pairs, err := stationaryPairs(base, o.seed, streamPairs, streamBatch)
	if err != nil {
		return nil, err
	}
	cyc := &cycler{}
	for _, b := range pairs {
		cyc.seq = append(cyc.seq, b...)
	}
	res.header["scale"] = serveScale
	res.header["vertices"] = base.NumVertices()
	res.header["edges"] = base.NumEdges()
	res.header["offered_ups"] = serveRate
	res.header["push_size"] = pushSize
	res.header["reads_per_s"] = readRate
	satTotal := fixedCount(0.4*o.seconds, satUpsPerSec/pushSize, 1) * pushSize
	res.header["saturation_updates"] = satTotal

	// Set up setupReps times; the last daemon serves.
	rec := &streamRec{tr: o.tr}
	var d *daemon
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.shutdown(); err != nil {
				return nil, err
			}
			os.RemoveAll(d.dir)
		}
		var secs float64
		if d, secs, err = startDaemon(o, base, alg, rec); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer os.RemoveAll(d.dir)
	m["setup_s"] = median(setups)
	if o.traced() {
		st := d.st
		rec.mu.Lock()
		rec.backlog = func() int64 { sm := st.Metrics(); return sm.Accepted - sm.Applied }
		rec.mu.Unlock()
	}

	stage := startStage()
	batches0 := d.st.Metrics().Batches
	abort := abortAt(o)

	// Stage 1: open-loop writer and reader.
	stage1 := time.Duration(0.6 * o.seconds * float64(time.Second))
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(stage1)
	var pushes, reads []reqRec
	var cum uint64
	wc, rc := newClient(d.ln), newClient(d.ln)
	rng := rand.New(rand.NewSource(o.seed + 2))
	n := base.Cap()
	var wg sync.WaitGroup
	cpu0 := processCPU()
	wg.Add(2)
	go func() {
		defer wg.Done()
		pushes = openLoop(start, end, time.Second*pushSize/serveRate, func(int) (bool, uint64) {
			acc, err := push(wc, baseURL, cyc.next(pushSize))
			cum += uint64(acc)
			reqErrs.note("push", err)
			return err == nil && acc == pushSize, cum
		})
	}()
	go func() {
		defer wg.Done()
		reads = openLoop(start, end, time.Second/readRate, func(i int) (bool, uint64) {
			q := fmt.Sprintf("%s/query?v=%d", baseURL, rng.Intn(n))
			if i%10 == 9 {
				q = baseURL + "/query?topk=10"
			}
			err := get(rc, q)
			reqErrs.note("query", err)
			return err == nil, 0
		})
	}()
	wg.Wait()
	stageLoad(m, rec.pubsCopy(), start, processCPU()-cpu0)
	rc.CloseIdleConnections()
	if err := d.st.Drain(); err != nil {
		return nil, err
	}
	accepted := cum

	// Stage 2: saturation. One closed-loop writer pushes as fast as /push
	// returns; Block backpressure bounds the backlog.
	satStart := time.Now()
	var satPushed uint64
	for sent := 0; sent < satTotal; sent += pushSize {
		if time.Now().After(abort) {
			return nil, tooSlow("serve saturation", sent, satTotal)
		}
		acc, err := push(wc, baseURL, cyc.next(pushSize))
		reqErrs.note("push", err)
		satPushed += uint64(acc)
		res.attempted++
		if err != nil || acc != pushSize {
			res.failed++
		}
	}
	if err := d.st.Drain(); err != nil {
		return nil, err
	}
	m["update_ups"] = float64(satPushed) / time.Since(satStart).Seconds()
	wc.CloseIdleConnections()
	accepted += satPushed
	stage.finish(m, d.st.Metrics().Batches-batches0)
	m["mem_peak_mb"] = peakRSSMB()

	// Freshness: due time of a push to the first snapshot holding its last
	// update. The writer is the only pusher, so its running accepted count
	// is the stream's update count once the push is applied.
	pubs := rec.pubsCopy()
	var fresh, pushMs, readMs, late []float64
	for _, p := range pushes {
		res.attempted++
		snap, found := coveringSnap(pubs, p.cum)
		if !p.ok || !found {
			res.failed++
			continue
		}
		fresh = append(fresh, ms(snap.at.Sub(p.due)))
		pushMs = append(pushMs, ms(p.done.Sub(p.due)))
		late = append(late, ms(p.sent.Sub(p.due)))
	}
	for _, r := range reads {
		res.attempted++
		if !r.ok {
			res.failed++
			continue
		}
		readMs = append(readMs, ms(r.done.Sub(r.due)))
		late = append(late, ms(r.sent.Sub(r.due)))
	}
	m["batch_p50_ms"] = median(fresh)
	tl := tailOf(fresh)
	m["batch_tail_ms"], m["batch.samples"], m["batch.tail_pct"] = tl.value, float64(tl.n), tl.pct
	m["serve.push_p50_ms"] = median(pushMs)
	pt := tailOf(pushMs)
	m["serve.push_tail_ms"], m["serve.push_tail_pct"] = pt.value, pt.pct
	m["serve.read_p50_ms"] = median(readMs)
	rt := tailOf(readMs)
	m["serve.read_tail_ms"], m["serve.read_tail_pct"] = rt.value, rt.pct
	m["gen.late_ms"] = tailOf(late).value

	if o.traced() {
		serveLayers(o, m, rec, pushes)
	}

	// Final check: every accepted update applied, and the final states
	// equal a restart on the final graph.
	if err := d.shutdown(); err != nil {
		return nil, err
	}
	ws := d.log.Stats()
	if o.traced() {
		m["wal.fsyncs"] = float64(ws.Fsyncs)
		m["wal.bytes_per_update"] = float64(ws.Bytes) / float64(max(ws.Updates, 1))
		rec.core.report(m, d.eng)
	}
	applied := d.st.Metrics().Applied
	res.check(applied == int64(accepted), "serve: %d updates accepted but %d applied", accepted, applied)
	g := d.st.Graph()
	want := layph.Run(g, alg, 0)
	got := d.st.Query().States[:g.Cap()]
	diff := algo.MaxStateDiff(got, want)
	m["check.max_diff"] = diff
	res.check(layph.StatesClose(got, want, 1e-6), "serve: final states differ from restart by %g", diff)

	if err := recoverStage(o, base, alg, res); err != nil {
		return nil, err
	}
	if o.traced() {
		bypassed(m, "core.acts_vs_ingress", "core.layph_acts", "core.ingress_acts")
	}
	return res, nil
}

// stageLoad records how busy the open-loop stage kept the host: the
// engine's share of the stage's wall time (serve.engine_busy, from the
// published inc.Stats) and the process's share of all CPUs
// (serve.cpu_util), load generator included.
func stageLoad(m map[string]float64, pubs []published, start time.Time, cpu time.Duration) {
	wall := time.Since(start)
	var engine time.Duration
	for _, p := range pubs {
		if p.at.After(start) {
			engine += p.engine
		}
	}
	m["serve.engine_busy"] = engine.Seconds() / wall.Seconds()
	m["serve.cpu_util"] = cpu.Seconds() / wall.Seconds() / float64(runtime.NumCPU())
}

// serveLayers derives the stream, WAL and delta metrics from the batch
// records the decorators collected, and links every push span to the
// snapshot that published it.
func serveLayers(o *options, m map[string]float64, rec *streamRec, pushes []reqRec) {
	rec.mu.Lock()
	batches := append([]*batchRec(nil), rec.batches...)
	m["stream.backlog_max"] = float64(rec.backlogMax)
	rec.mu.Unlock()
	bySeq := map[uint64]*batchRec{}
	var apply, publish, size, appendMs, after []float64
	for _, b := range batches {
		bySeq[b.seq] = b
		size = append(size, float64(b.size))
		appendMs = append(appendMs, ms(b.logEnd.Sub(b.logStart)))
		after = append(after, ms(b.afterEnd.Sub(b.afterStart)))
		if !b.updStart.IsZero() {
			apply = append(apply, ms(b.updStart.Sub(b.logEnd)))
			publish = append(publish, ms(b.at.Sub(b.updEnd)))
		}
	}
	pubs := rec.pubsCopy()
	var wait []float64
	for i, p := range pushes {
		id := o.tr.add(0, "http.push", pushTrace+int64(i), p.due, p.done)
		snap, found := coveringSnap(pubs, p.cum)
		if !found {
			continue
		}
		o.tr.link(id, int64(snap.seq))
		if b := bySeq[snap.seq]; b != nil && !b.updStart.IsZero() {
			wait = append(wait, ms(b.updStart.Sub(p.done)))
		}
	}
	m["delta.apply_ms"] = mean(apply)
	m["stream.publish_ms"] = mean(publish)
	m["stream.batch_size"] = mean(size)
	m["stream.queue_wait_ms"] = median(wait)
	m["wal.append_ms"] = mean(appendMs)
	m["wal.after_ms"] = mean(after)
	m["trace.batch_self_ms"] = o.tr.selfMean("stream.batch")
}

// pushTrace offsets the trace ids of /push spans from the snapshot seqs
// batch spans use.
const pushTrace = 1 << 40

// recoverStage measures crash recovery: a durable stream logs
// recoverBatches batches past its start checkpoint and is closed without a
// final checkpoint; each repetition reopens a fresh copy of that directory
// with layph.OpenStream. It records serve.recover_s, wal.load_ms and
// wal.replay_ms (medians) and checks every recovered state.
func recoverStage(o *options, base *layph.Graph, alg layph.Algorithm, res *result) error {
	tmpl, err := os.MkdirTemp(o.tmp, "perfbench-crash-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpl)
	batches, err := stationaryPairs(base, o.seed+3, recoverBatches/2, recoverBatchSize)
	if err != nil {
		return err
	}
	g := base.Clone()
	eng := layph.NewLayph(g, alg, layph.Config{})
	log, _, err := wal.Open(tmpl, wal.Config{Meta: serveMeta, CheckpointEvery: -1})
	if err != nil {
		return err
	}
	if err := log.Start(0, 0, g, eng.States()); err != nil {
		log.Close()
		return err
	}
	st := layph.NewStream(g, eng, layph.StreamConfig{Durability: log, MaxBatch: 1 << 20, MaxDelay: -1})
	for _, b := range batches {
		for _, u := range b {
			if err := st.Push(u); err != nil {
				return err
			}
		}
		if err := st.Drain(); err != nil {
			return err
		}
	}
	st.Close()
	if err := log.Close(); err != nil { // crash-closed: no final checkpoint
		return err
	}

	build := func(g *layph.Graph) layph.System { return layph.NewLayph(g, alg, layph.Config{}) }
	var secs, load, replay []float64
	for r := 0; r < setupReps; r++ {
		dir := filepath.Join(o.tmp, fmt.Sprintf("perfbench-recover-%d-%d", os.Getpid(), r))
		if err := copyDir(tmpl, dir); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		ds, err := layph.OpenStream(nil, build, layph.DurableStreamConfig{Dir: dir, WAL: layph.WALConfig{Meta: serveMeta}})
		t1 := time.Now()
		res.attempted++
		if err != nil {
			res.failed++
			res.correct = false
			fmt.Fprintln(os.Stderr, "perfbench: recovery failed:", err)
			os.RemoveAll(dir)
			continue
		}
		o.tr.add(0, "layph.OpenStream", 0, t0, t1)
		info := ds.Recovery
		secs = append(secs, t1.Sub(t0).Seconds())
		ds.Stream.Close()
		rg := ds.Stream.Graph()
		want := layph.Run(rg, alg, 0)
		got := ds.Stream.Query().States[:rg.Cap()]
		res.check(info != nil && info.StatesVerified && info.ReplayedBatches == recoverBatches,
			"recovery: want a verified checkpoint and %d replayed batches, got %+v", recoverBatches, info)
		res.check(layph.StatesClose(got, want, 1e-6), "recovery: states differ from restart by %g", algo.MaxStateDiff(got, want))
		if info != nil {
			load = append(load, info.LoadMillis)
			replay = append(replay, info.ReplayMillis)
		}
		if err := ds.Log.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}
	if len(secs) == 0 {
		return errors.New("recovery failed on every repetition")
	}
	res.metrics["serve.recover_s"] = median(secs)
	res.metrics["wal.load_ms"] = median(load)
	res.metrics["wal.replay_ms"] = median(replay)
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
