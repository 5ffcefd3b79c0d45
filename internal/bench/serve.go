package bench

// Serving scenario: the HTTP daemon (internal/server) fronting a live
// stream, measured as a real service — N concurrent readers issue
// /query requests over loopback HTTP while one paced writer sustains a
// fixed /push update rate. Each point records read QPS and p50/p99
// read latency, plus the write throughput actually absorbed during the
// window, so snapshot-read isolation can be regressed against: reader
// counts should scale QPS without stalling the write path.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"layph/internal/algo"
	"layph/internal/core"
	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/server"
	"layph/internal/stream"
)

// ServeJSONPath is where ServeExperiment drops its machine-readable
// record (relative to the working directory).
const ServeJSONPath = "BENCH_serve.json"

// ServePoint is one reader-count measurement window.
type ServePoint struct {
	Readers      int     `json:"readers"`
	Reads        int64   `json:"reads"`
	QPS          float64 `json:"qps"`
	P50Micros    float64 `json:"read_p50_us"`
	P99Micros    float64 `json:"read_p99_us"`
	WriteApplied int64   `json:"write_applied"`
	WriteUPS     float64 `json:"write_ups"`
	Batches      int64   `json:"batches"`
}

// ServeReport is the BENCH_serve.json payload. Note flags captures taken
// on hardware where reader counts oversubscribe the cores (same caveat as
// ParallelReport.Capped: concurrency levels above GOMAXPROCS measure
// time-sharing, not scaling).
type ServeReport struct {
	Graph          string       `json:"graph"`
	Algo           string       `json:"algo"`
	GOMAXPROCS     int          `json:"gomaxprocs"`
	Vertices       int          `json:"vertices"`
	WriteTargetUPS int          `json:"write_target_ups"`
	PointSeconds   float64      `json:"point_seconds"`
	Note           string       `json:"note,omitempty"`
	Points         []ServePoint `json:"points"`
}

// serveReaderCounts are the concurrency levels measured per run.
var serveReaderCounts = []int{1, 4, 16}

// RunServe stands up the full daemon stack (community graph, Layph
// SSSP, micro-batching stream, HTTP server on a loopback listener) and
// measures read QPS/latency at each reader count while a paced writer
// streams updates at writeUPS.
func RunServe(o Options) ServeReport {
	o = o.normalize()
	vertices := int(20000 * o.Scale)
	if vertices < 500 {
		vertices = 500
	}
	const (
		writeUPS   = 2000
		writeChunk = 100
		pointSecs  = 1.5
	)

	g, _ := gen.CommunityGraph(gen.CommunityConfig{
		Vertices:      vertices,
		MeanCommunity: 40,
		IntraDegree:   8,
		InterDegree:   0.3,
		HubFraction:   0.01,
		HubDegree:     16,
		Weighted:      true,
		Seed:          o.Seed,
	})
	// Enough pre-generated updates to feed every window plus warm-up,
	// with 2x slack so the writer never runs dry mid-measurement.
	budget := int(float64(writeUPS) * (pointSecs*float64(len(serveReaderCounts)) + 2) * 2)
	seq := delta.NewGenerator(o.Seed+1).UnitSequence(g, budget, true)

	sys := core.New(g, algo.NewSSSP(0), core.Options{Workers: o.Threads})
	st := stream.New(g, sys, stream.Config{MaxBatch: 256, MaxDelay: 5 * time.Millisecond})
	defer st.Close()
	srv := server.New(st, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Paced writer: writeChunk-update text batches at writeUPS.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		tick := time.NewTicker(time.Duration(writeChunk) * time.Second / writeUPS)
		defer tick.Stop()
		client := ts.Client()
		for i := 0; i+writeChunk <= len(seq); i += writeChunk {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			var buf bytes.Buffer
			if err := delta.WriteUpdates(&buf, delta.Batch(seq[i:i+writeChunk])); err != nil {
				panic(fmt.Sprintf("bench: serve writer: %v", err))
			}
			resp, err := client.Post(ts.URL+"/push", "text/plain", &buf)
			if err != nil {
				panic(fmt.Sprintf("bench: serve writer: %v", err))
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				panic(fmt.Sprintf("bench: serve writer: /push status %d", resp.StatusCode))
			}
		}
	}()
	// Let the write stream settle before the first window.
	time.Sleep(300 * time.Millisecond)

	rep := ServeReport{
		Graph:          fmt.Sprintf("community-%d", vertices),
		Algo:           "SSSP",
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Vertices:       vertices,
		WriteTargetUPS: writeUPS,
		PointSeconds:   pointSecs,
	}
	if max := serveReaderCounts[len(serveReaderCounts)-1]; rep.GOMAXPROCS < max {
		rep.Note = fmt.Sprintf("capped: GOMAXPROCS=%d < %d readers; reader-scaling points oversubscribe the cores and are not valid scaling data",
			rep.GOMAXPROCS, max)
	}
	queryURL := ts.URL + fmt.Sprintf("/query?v=0,1,%d&topk=8", vertices-1)
	for _, readers := range serveReaderCounts {
		m0 := st.Metrics()
		start := time.Now()
		deadline := start.Add(time.Duration(pointSecs * float64(time.Second)))

		var mu sync.Mutex
		var lats []float64 // microseconds
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := ts.Client()
				local := make([]float64, 0, 4096)
				for time.Now().Before(deadline) {
					t0 := time.Now()
					resp, err := client.Get(queryURL)
					if err != nil {
						panic(fmt.Sprintf("bench: serve reader: %v", err))
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						panic(fmt.Sprintf("bench: serve reader: /query status %d", resp.StatusCode))
					}
					local = append(local, float64(time.Since(t0))/float64(time.Microsecond))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		m1 := st.Metrics()

		sort.Float64s(lats)
		applied := m1.Applied - m0.Applied
		rep.Points = append(rep.Points, ServePoint{
			Readers:      readers,
			Reads:        int64(len(lats)),
			QPS:          float64(len(lats)) / elapsed,
			P50Micros:    percentile(lats, 0.50),
			P99Micros:    percentile(lats, 0.99),
			WriteApplied: applied,
			WriteUPS:     float64(applied) / elapsed,
			Batches:      m1.Batches - m0.Batches,
		})
	}
	close(stop)
	<-writerDone
	return rep
}

// percentile reads the p-quantile from an ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// ServeExperiment prints the read-scaling table and drops
// BENCH_serve.json next to the invocation.
func ServeExperiment(w io.Writer, o Options) {
	rep := RunServe(o)
	fmt.Fprintf(w, "Serve (SSSP on %s, %d-reader HTTP /query vs live /push at %d updates/s, %.1fs windows, GOMAXPROCS=%d)\n",
		rep.Graph, serveReaderCounts[len(serveReaderCounts)-1], rep.WriteTargetUPS, rep.PointSeconds, rep.GOMAXPROCS)
	t := NewTable("readers", "reads", "qps", "p50-us", "p99-us", "write-ups", "batches")
	for _, p := range rep.Points {
		t.Row(p.Readers, p.Reads, p.QPS, p.P50Micros, p.P99Micros, p.WriteUPS, p.Batches)
	}
	t.Print(w)
	if err := writeJSON(ServeJSONPath, rep); err != nil {
		fmt.Fprintf(w, "(could not write %s: %v)\n", ServeJSONPath, err)
	} else {
		fmt.Fprintf(w, "(wrote %s)\n", ServeJSONPath)
	}
}
