// Command perfbench is the repository benchmark. One invocation runs one
// workload against the layph packages, checks the final states against a
// restart on the final graph, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload replay-sssp --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics BENCHMARK.json
// lists; with --trace 1 it carries the per-layer metrics. Layers are
// measured from outside the program only: the benchmark's own calls into
// public functions, decorators it injects through public seams (a timing
// System, a timing Durable around the WAL, the stream's OnBatch hook, the
// relayer's Build hook), and records the program already publishes
// (LastPhases, LastActs, OfflineStats, inc.Stats, stream and WAL stats,
// RecoveryInfo). README.md documents every workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// specPath is BENCHMARK.json, read from the checkout root the benchmark
// runs in. It is the single list of metric names and units.
const specPath = "BENCHMARK.json"

// stateDir holds what a run leaves for later runs in the same checkout:
// span files and the last untraced result of each workload and seed.
const stateDir = ".bench_build/perfbench"

// setupReps is how many times each workload sets its engine up; setup_s is
// the median, so one slow start does not decide the metric.
const setupReps = 3

// Every run replays a fixed amount of work, so two builds are measured on
// the same stream however fast each is: fixedCount(seconds, rate) units,
// where rate is the unit's throughput on the reference host (2 vCPUs, Go
// 1.24, ext4), so a run takes about --seconds there. A run still going
// after abortFactor × --seconds fails instead of measuring a shorter
// stream.
const abortFactor = 3

func fixedCount(seconds, perSecond float64, least int) int {
	return max(least, int(math.Round(seconds*perSecond)))
}

func abortAt(o *options) time.Time {
	return time.Now().Add(time.Duration(abortFactor * o.seconds * float64(time.Second)))
}

func tooSlow(what string, done, total int) error {
	return fmt.Errorf("%s: only %d of %d done after %gx --seconds; the run fails rather than measure less work",
		what, done, total, float64(abortFactor))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	tmp      string  // parent of WAL directories
	tr       *tracer // nil when untraced
}

func (o *options) traced() bool { return o.tr != nil }

// result is what a workload measured. metrics holds every value measured,
// end-to-end and per-layer; emit picks the ones BENCHMARK.json lists for
// the run's mode.
type result struct {
	attempted, failed int64
	correct           bool
	metrics           map[string]float64
	header            map[string]any // workload-specific run header fields
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]float64{}, header: map[string]any{}}
}

// check records one correctness check: a failed check counts as a failed
// operation and makes the run incorrect.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

type workload func(o *options) (*result, error)

var workloads = map[string]workload{
	"replay-sssp": func(o *options) (*result, error) { return runReplay(o, replaySSSP) },
	"replay-pr":   func(o *options) (*result, error) { return runReplay(o, replayPR) },
	"serve":       runServe,
	"drift":       runDrift,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of every generated update stream")
	seconds := fs.Float64("seconds", 15, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return 1, err
	}
	w, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("need --seconds > 0 and --trace 0|1")
	}
	o := &options{workload: *name, seed: *seed, seconds: *seconds, tmp: os.TempDir()}
	if *trace == 1 {
		o.tr = newTracer()
	}

	steal0, total0 := cpuTicks()
	res, err := w(o)
	if err != nil {
		return 1, err
	}
	hdr := runHeader(o)
	// steal_frac is the share of CPU time the hypervisor gave other guests
	// during the run: on a shared host it, not the program, moves the
	// wall-clock metrics (serve's freshness rose ~60% at 0.2).
	if steal1, total1 := cpuTicks(); total1 > total0 {
		hdr["steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	for k, v := range res.header {
		hdr[k] = v
	}
	line, _ := json.Marshal(hdr)
	fmt.Fprintf(stdout, "# header %s\n", line)

	if o.traced() {
		path := filepath.Join(stateDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := o.tr.write(path); err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
		for _, st := range o.tr.selfTimes() {
			fmt.Fprintf(stdout, "# self %-18s n=%-6d total=%.3fms self=%.3fms\n", st.name, st.n, st.totalMs, st.selfMs)
		}
		res.metrics["trace.update_ups"] = res.metrics["update_ups"]
		res.metrics["trace.batch_p50_ms"] = res.metrics["batch_p50_ms"]
		printOverhead(stdout, o, res.metrics)
	} else {
		saveUntraced(o, res.metrics)
	}
	printExtras(stdout, sp, res.metrics, o.traced())

	list := sp.EndToEnd
	if o.traced() {
		list = sp.PerLayer
	}
	out, err := emit(list, res, !o.traced())
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(out))
	if !res.correct {
		return 1, errors.New("final states differ from restart; see the checks above")
	}
	return 0, nil
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !validName(m.Name) || seen[m.Name] {
			return nil, fmt.Errorf("%s: bad or repeated metric name %q", path, m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range sp.Workloads {
		if !validName(w.Name) || seen[w.Name] {
			return nil, fmt.Errorf("%s: bad or repeated workload name %q", path, w.Name)
		}
		seen[w.Name] = true
	}
	return &sp, nil
}

// emit renders the result line with exactly the listed metrics. A listed
// metric the workload did not measure is a benchmark bug, not a zero. With
// nonzero set (the end-to-end list) a 0 is refused too: every end-to-end
// metric is a time, rate or size that a working run never measures as 0,
// so a 0 means the measured stage did not run, e.g. every request failed.
func emit(list []metricSpec, r *result, nonzero bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", m.Name)
		}
		if nonzero && v == 0 {
			return nil, fmt.Errorf("metric %s is 0: its stage measured nothing", m.Name)
		}
		ms[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// printExtras prints, before the result line, every measured value with its
// unit; in a traced run each per-layer metric is printed next to the
// end-to-end metric and workloads it is expected to move.
func printExtras(w io.Writer, sp *spec, m map[string]float64, traced bool) {
	units := map[string]string{}
	for _, s := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		units[s.Name] = s.Unit
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		line := fmt.Sprintf("# %-28s %14.6g %s", k, m[k], units[k])
		if traced && moves[k] != "" {
			line += "  -> " + moves[k]
		}
		fmt.Fprintln(w, line)
	}
}

// moves names, for each per-layer metric, the end-to-end metric and the
// workloads it is expected to move.
var moves = map[string]string{
	"core.layered_update_ms":   "update_ups, batch_p50_ms on replay-sssp and replay-pr; less so batch_p50_ms on serve",
	"core.acts.layered_update": "update_ups, batch_p50_ms on replay-sssp and replay-pr",
	"core.upload_ms":           "batch_p50_ms on replay-pr; no change predicted on replay-sssp",
	"core.lup_iteration_ms":    "batch_p50_ms on replay-pr; no change predicted on replay-sssp",
	"core.assignment_ms":       "batch_p50_ms on replay-pr; no change predicted on replay-sssp",
	"core.acts.online":         "batch_p50_ms on replay-pr; no change predicted on replay-sssp",
	"core.rounds":              "batch_p50_ms on replay-pr",
	"core.resets":              "batch_p50_ms on replay-sssp (min-scheme cancellations)",
	"core.other_ms":            "batch_p50_ms (freshness) and update_ups (ingest) on serve",
	"core.pool_util":           "update_ups on replay-sssp and replay-pr",
	"core.pool_tasks":          "update_ups on replay-sssp and replay-pr",
	"core.touched_ratio":       "layering quality: batch_p50_ms on every workload",
	"core.skeleton_frac_first": "layering quality at the first batch",
	"core.skeleton_frac_last":  "layering quality at the last batch (history-dependent creep)",
	"core.shortcut_hit_rate":   "layering quality: batch_p50_ms on replay-sssp",
	"core.acts_vs_ingress":     "the paper's headline on replay-sssp and replay-pr",
	"core.layph_acts":          "numerator of core.acts_vs_ingress",
	"core.ingress_acts":        "denominator of core.acts_vs_ingress",
	"core.build_s":             "setup_s on every workload; serve.recover_s on serve",
	"core.initial_s":           "setup_s on every workload; serve.recover_s on serve",
	"core.shortcuts":           "setup_s on every workload",
	"delta.apply_ms":           "batch_p50_ms on replay-sssp and replay-pr",
	"stream.queue_wait_ms":     "batch_p50_ms (freshness) and update_ups (ingest) on serve",
	"stream.publish_ms":        "batch_p50_ms (freshness) on serve",
	"stream.batch_size":        "update_ups (ingest) on serve",
	"stream.backlog_max":       "batch_tail_ms (freshness) on serve",
	"wal.append_ms":            "batch_p50_ms (freshness), serve.push_tail_ms on serve; bypassed on replay-*",
	"wal.after_ms":             "batch_p50_ms (freshness) on serve; bypassed on replay-*",
	"wal.fsyncs":               "batch_p50_ms (freshness) on serve; bypassed on replay-*",
	"wal.bytes_per_update":     "update_ups (ingest) on serve; bypassed on replay-*",
	"wal.load_ms":              "serve.recover_s on serve",
	"wal.replay_ms":            "serve.recover_s on serve",
	"go.alloc_mb_per_batch":    "batch_tail_ms on every workload",
	"go.gc_pause_ms":           "batch_tail_ms on every workload",
	"serve.push_p50_ms":        "client-visible /push latency on serve",
	"serve.push_tail_ms":       "client-visible /push tail on serve",
	"serve.read_p50_ms":        "client-visible /query latency beside writes on serve",
	"serve.read_tail_ms":       "client-visible /query tail beside writes on serve",
	"serve.recover_s":          "restart time after a crash on serve",
	"serve.engine_busy":        "engine share of the open-loop stage on serve: batch_p50_ms (freshness) on serve",
	"serve.cpu_util":           "process share of all CPUs in the open-loop stage on serve, load generator included",
	"gen.late_ms":              "open-loop honesty on serve: large values mean the generator, not the system, set the pace",
	"batch.samples":            "sample count behind batch_p50_ms and batch_tail_ms",
	"batch.tail_pct":           "the percentile batch_tail_ms reports",
	"trace.update_ups":         "update_ups measured with tracing on (overhead = untraced/traced)",
	"trace.batch_p50_ms":       "batch_p50_ms measured with tracing on (overhead = traced/untraced)",
	"trace.batch_self_ms":      "time inside a batch not covered by a traced layer call",
	"check.max_diff":           "largest state difference from restart (correctness margin)",
}

func runHeader(o *options) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT") // set by run.sh
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"traced":     o.traced(),
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"tmp_fs":     fsType(o.tmp),
	}
}

// peakRSSMB is the process's peak resident memory so far (VmHWM), falling
// back to the Go runtime's total obtained memory where /proc is absent.
// Workloads read it when their measured stage ends, before the restart
// checks.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				var kb float64
				if _, err := fmt.Sscan(f[1], &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// baseline is an untraced run's end-to-end values and what identifies the
// run, so a traced run compares itself only with the same workload, seed
// and build.
type baseline struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Build    string             `json:"build"`
	Metrics  map[string]float64 `json:"metrics"`
}

// buildID names the build: the commit run.sh passes (unknown outside git)
// and a hash of the benchmark binary, which also changes with the code.
func buildID() string {
	id := os.Getenv("PERFBENCH_COMMIT")
	if exe, err := os.Executable(); err == nil {
		if b, err := os.ReadFile(exe); err == nil {
			id += fmt.Sprintf("+%x", sha256.Sum256(b))
		}
	}
	return id
}

func baselinePath(o *options) string {
	return filepath.Join(stateDir, fmt.Sprintf("untraced-%s-seed%d.json", o.workload, o.seed))
}

// saveUntraced keeps an untraced run's end-to-end values so a later traced
// run of the same workload, seed and build can print the tracing overhead.
func saveUntraced(o *options, m map[string]float64) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return
	}
	b, _ := json.Marshal(baseline{Workload: o.workload, Seed: o.seed, Build: buildID(), Metrics: m})
	_ = os.WriteFile(baselinePath(o), b, 0o644) // best effort: only the overhead line needs it
}

func printOverhead(w io.Writer, o *options, traced map[string]float64) {
	var bl baseline
	b, err := os.ReadFile(baselinePath(o))
	if err != nil || json.Unmarshal(b, &bl) != nil || bl.Workload != o.workload || bl.Seed != o.seed || bl.Build != buildID() {
		fmt.Fprintln(w, "# tracing overhead: no untraced run of this workload, seed and build in this checkout yet")
		return
	}
	un := bl.Metrics
	if un["update_ups"] == 0 || traced["update_ups"] == 0 || un["batch_p50_ms"] == 0 {
		return
	}
	fmt.Fprintf(w, "# tracing overhead vs the untraced run of this seed and build: update_ups %+.1f%%, batch_p50_ms %+.1f%%\n",
		100*(un["update_ups"]/traced["update_ups"]-1), 100*(traced["batch_p50_ms"]/un["batch_p50_ms"]-1))
}

// memStage tracks Go allocation and GC pauses across a measured stage.
type memStage struct {
	ms runtime.MemStats
}

func startStage() *memStage {
	s := &memStage{}
	runtime.ReadMemStats(&s.ms)
	return s
}

// finish records go.alloc_mb_per_batch and go.gc_pause_ms for the stage.
func (s *memStage) finish(m map[string]float64, batches int64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	if batches > 0 {
		m["go.alloc_mb_per_batch"] = float64(now.TotalAlloc-s.ms.TotalAlloc) / (1 << 20) / float64(batches)
	} else {
		m["go.alloc_mb_per_batch"] = 0
	}
	m["go.gc_pause_ms"] = float64(now.PauseTotalNs-s.ms.PauseTotalNs) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
