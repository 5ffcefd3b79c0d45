package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"layph"
	"layph/internal/gen"
)

type edge struct {
	u, v layph.VertexID
	w    float64
}

func edgeSet(g *layph.Graph) []edge {
	var es []edge
	g.Edges(func(u, v layph.VertexID, w float64) { es = append(es, edge{u, v, w}) })
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	return es
}

func sameEdges(a, b []edge) bool {
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

// TestInversePairReturnsToBase checks the stationary helper: after every
// forward batch and its inverse the edge set (weights included) is the
// base graph's again.
func TestInversePairReturnsToBase(t *testing.T) {
	base := layph.GenerateCommunityGraph(gen.PresetConfig(gen.PresetUK, 0.02))
	want := edgeSet(base)
	g := base.Clone()
	bg := layph.NewBatchGenerator(3)
	for pair := 0; pair < 5; pair++ {
		a := layph.ApplyBatch(g, bg.EdgeBatch(g, 300, true))
		if a.Empty() {
			t.Fatalf("pair %d: forward batch changed nothing", pair)
		}
		inv, err := inverseBatch(a)
		if err != nil {
			t.Fatal(err)
		}
		layph.ApplyBatch(g, inv)
		if !sameEdges(edgeSet(g), want) {
			t.Fatalf("pair %d: edge set differs from the base graph", pair)
		}
	}
}

// TestStationaryPairsFlattened checks that the flattened pair stream also
// returns to base when cut into micro-batches at arbitrary points.
func TestStationaryPairsFlattened(t *testing.T) {
	base := layph.GenerateCommunityGraph(gen.PresetConfig(gen.PresetUK, 0.02))
	pairs, err := stationaryPairs(base, 4, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	var flat layph.Batch
	for _, b := range pairs {
		flat = append(flat, b...)
	}
	g := base.Clone()
	for i := 0; i < len(flat); i += 37 {
		layph.ApplyBatch(g, flat[i:min(i+37, len(flat))])
	}
	if !sameEdges(edgeSet(g), edgeSet(base)) {
		t.Fatal("flattened pairs do not return to the base graph")
	}
}

// TestPairMatchesRun checks Layph's states after one stationary pair
// against a restart, for both schemes, at tiny scale.
func TestPairMatchesRun(t *testing.T) {
	for _, c := range []struct {
		name string
		sp   replaySpec
	}{{"sssp", replaySSSP}, {"pagerank", replayPR}} {
		t.Run(c.name, func(t *testing.T) {
			g := layph.GenerateCommunityGraph(gen.PresetConfig(gen.PresetUK, 0.02))
			alg := c.sp.algo()
			l := layph.NewLayph(g, alg, layph.Config{})
			a := layph.ApplyBatch(g, layph.NewBatchGenerator(5).EdgeBatch(g, 100, true))
			l.Update(a)
			inv, err := inverseBatch(a)
			if err != nil {
				t.Fatal(err)
			}
			l.Update(layph.ApplyBatch(g, inv))
			if !layph.StatesClose(l.States()[:g.Cap()], layph.Run(g, alg, 0), c.sp.tol) {
				t.Fatal("states after a forward/inverse pair differ from restart")
			}
		})
	}
}

func TestInverseRefusesVertexTransitions(t *testing.T) {
	g := layph.GenerateCommunityGraph(gen.PresetConfig(gen.PresetUK, 0.02))
	a := layph.ApplyBatch(g, layph.Batch{{Kind: layph.DelVertex, U: 3}})
	if _, err := inverseBatch(a); err == nil {
		t.Fatal("want an error for a batch that removes a vertex")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

// TestTailRule checks that a tail is the highest ladder percentile with at
// least ten samples above it, and falls back to the median.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{1000, 95, 950},
		{999, 95, 950},
		{200, 95, 190},
		{199, 90, 180},
		{100, 90, 90},
		{99, 75, 75},
		{40, 75, 30},
		{39, 50, 20},
		{20, 50, 10},
		{19, 50, 10},
		{1, 50, 1},
	} {
		xs := seq(c.n)
		tl := tailOf(xs)
		if tl.pct != c.pct || tl.value != c.want || tl.n != c.n {
			t.Errorf("n=%d: got p%v=%v (n=%d), want p%v=%v", c.n, tl.pct, tl.value, tl.n, c.pct, c.want)
		}
		if tl.pct > 50 {
			beyond := 0
			for _, x := range xs {
				if x > tl.value {
					beyond++
				}
			}
			if beyond < tailSamplesBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
			}
		}
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.acts.online", "a", "9x", "wal.bytes_per_update", "x-y"} {
		if !validName(ok) {
			t.Errorf("%q should be valid", ok)
		}
	}
	long := fmt.Sprintf("%065d", 0)
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", long} {
		if validName(bad) {
			t.Errorf("%q should be invalid", bad)
		}
	}
	if !validName(long[:64]) {
		t.Error("a 64-character name should be valid")
	}
}

// TestSpecNames checks BENCHMARK.json: every name legal and used once, and
// every listed workload runnable.
func TestSpecNames(t *testing.T) {
	sp, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is listed but not implemented", w.Name)
		}
	}
	for _, m := range sp.PerLayer {
		if moves[m.Name] == "" {
			t.Errorf("per-layer metric %s does not say what it should move", m.Name)
		}
	}
}

// TestPipeListenerServesHTTP runs HTTP requests over the in-memory
// transport the serve workload uses, then shuts the server down.
func TestPipeListenerServesHTTP(t *testing.T) {
	ln := newPipeListener()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s %s", r.URL.Path, body)
	})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newClient(ln)
	for i := 0; i < 3; i++ {
		resp, err := c.Post(baseURL+"/push", "text/plain", strings.NewReader(fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("/push %d", i); string(got) != want {
			t.Fatalf("response %q, want %q", got, want)
		}
	}
	if err := hs.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if _, err := c.Get(baseURL + "/push"); err == nil {
		t.Fatal("request after shutdown succeeded")
	}
}

// TestEmitRefusesZero checks that an end-to-end metric of 0 fails the run
// while a per-layer 0 (a bypassed layer) is reported.
func TestEmitRefusesZero(t *testing.T) {
	r := newResult()
	r.attempted = 1
	r.metrics["x"] = 0
	list := []metricSpec{{Name: "x", Unit: "ms"}}
	if _, err := emit(list, r, true); err == nil {
		t.Fatal("end-to-end 0 accepted")
	}
	if _, err := emit(list, r, false); err != nil {
		t.Fatal(err)
	}
}
