package bench

// Recovery scenario: the durability layer measured from both sides.
// Write path — the same unit-update stream ingested with no WAL, then
// with the log at each fsync policy, so the steady-state logging
// overhead is a ratio against the no-WAL baseline. Recovery path — a
// crash image is left behind at each checkpoint cadence (the stream is
// stopped without its final checkpoint, exactly what kill -9 leaves)
// and the recovery sequence the layph.OpenStream facade runs —
// checkpoint load, engine rebuild, tail replay, re-checkpoint, stream
// restart — is timed end to end.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"layph/internal/delta"
	"layph/internal/gen"
	"layph/internal/graph"
	"layph/internal/inc"
	"layph/internal/stream"
	"layph/internal/wal"
)

// RecoveryJSONPath is where RecoveryExperiment drops its machine-readable
// record (relative to the working directory).
const RecoveryJSONPath = "BENCH_recovery.json"

// RecoveryWritePoint is one fsync-policy measurement of the ingestion
// path. Overhead is the no-WAL throughput divided by this mode's (1.0
// for the baseline itself; higher = slower).
type RecoveryWritePoint struct {
	Mode     string  `json:"mode"`
	UPS      float64 `json:"ups"`
	Batches  int64   `json:"batches"`
	Fsyncs   int64   `json:"fsyncs"`
	WALBytes int64   `json:"wal_bytes"`
	Overhead float64 `json:"overhead_vs_no_wal"`
}

// RecoveryPoint is one checkpoint-cadence crash-recovery measurement.
// RecoverMillis is the full back-to-serving wall time (checkpoint load +
// engine rebuild + tail replay + re-checkpoint + stream restart);
// LoadMillis and ReplayMillis break out the I/O and replay shares.
type RecoveryPoint struct {
	CheckpointEvery int     `json:"checkpoint_every"`
	TailBatches     int64   `json:"tail_batches"`
	ReplayedUpdates int64   `json:"replayed_updates"`
	RecoverMillis   float64 `json:"recover_ms"`
	LoadMillis      float64 `json:"load_ms"`
	ReplayMillis    float64 `json:"replay_ms"`
	ReplayUPS       float64 `json:"replay_ups"`
}

// RecoveryReport is the BENCH_recovery.json payload.
type RecoveryReport struct {
	Graph      string               `json:"graph"`
	Algo       string               `json:"algo"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Vertices   int                  `json:"vertices"`
	Updates    int                  `json:"updates"`
	MicroBatch int                  `json:"micro_batch"`
	Note       string               `json:"note,omitempty"`
	WritePath  []RecoveryWritePoint `json:"write_path"`
	Recovery   []RecoveryPoint      `json:"recovery"`
}

// recoveryCheckpointIntervals are the cadences measured per run.
var recoveryCheckpointIntervals = []int{4, 16, 64}

// runDurable ingests seq through a WAL-backed stream in dir, returning
// the push-to-drain ingestion wall clock (setup — directory, initial
// checkpoint, engine — is excluded, matching the no-WAL baseline's
// timer) and leaving the stream and log open for the caller to stop.
func runDurable(dir string, g *graph.Graph, sys inc.System, cfg wal.Config, micro int, seq []delta.Update) (*stream.Stream, *wal.Log, float64, error) {
	l, rec, err := wal.Open(dir, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if rec != nil {
		l.Close()
		return nil, nil, 0, fmt.Errorf("bench: recovery: dir %s not fresh", dir)
	}
	if err := l.Start(0, 0, g, sys.States()); err != nil {
		l.Close()
		return nil, nil, 0, err
	}
	s := stream.New(g, sys, stream.Config{MaxBatch: micro, MaxDelay: -1, Durability: l})
	start := time.Now()
	for _, u := range seq {
		if err := s.Push(u); err != nil {
			s.Close()
			l.Close()
			return nil, nil, 0, err
		}
	}
	if err := s.Drain(); err != nil {
		s.Close()
		l.Close()
		return nil, nil, 0, err
	}
	return s, l, time.Since(start).Seconds(), nil
}

// RunRecovery measures WAL write-path overhead per fsync policy and
// crash-recovery time per checkpoint interval, SSSP/Layph on UK.
func RunRecovery(o Options) (RecoveryReport, error) {
	o = o.normalize()
	base := gen.Build(gen.PresetUK, o.Scale)
	n := o.Batches * o.BatchSize
	// Size micro-batches so the batch count is not a multiple of 4 (hence
	// of no measured cadence — they are all powers of two ≥ 4): every
	// crash image then carries a non-empty replayable tail.
	micro := o.BatchSize / 20
	if micro < 1 {
		micro = 1
	}
	for (n+micro-1)/micro%4 == 0 {
		micro++
	}
	seq := delta.NewGenerator(o.Seed).UnitSequence(base, n, true)
	mk := Algorithms()["SSSP"]
	build := func(g *graph.Graph) inc.System {
		sys, _ := buildSystem(Layph, g, mk, o.Threads)
		return sys
	}

	rep := RecoveryReport{
		Graph:      "UK",
		Algo:       "SSSP",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Vertices:   base.Cap(),
		Updates:    n,
		MicroBatch: micro,
	}
	if rep.GOMAXPROCS == 1 {
		rep.Note = "single-core capture: ingestion and replay run sequentially, run-to-run variance can exceed the fsync-policy spread, and fsync costs depend on the backing filesystem"
	}

	// Write path: the same stream with no WAL, then per fsync policy.
	// Checkpoints are disabled (CheckpointEvery < 0) so the points
	// isolate the per-batch logging cost.
	modes := []struct {
		name string
		sync wal.SyncPolicy
	}{
		{"no-wal", 0},
		{"fsync-off", wal.SyncOff},
		{"fsync-interval-100ms", wal.SyncInterval},
		{"fsync-batch", wal.SyncEveryBatch},
	}
	for _, m := range modes {
		g := base.Clone()
		sys := build(g)
		var p RecoveryWritePoint
		p.Mode = m.name
		if m.name == "no-wal" {
			s := stream.New(g, sys, stream.Config{MaxBatch: micro, MaxDelay: -1})
			start := time.Now()
			for _, u := range seq {
				if err := s.Push(u); err != nil {
					return rep, fmt.Errorf("bench: recovery write path (%s): %w", m.name, err)
				}
			}
			if err := s.Drain(); err != nil {
				return rep, fmt.Errorf("bench: recovery write path (%s): %w", m.name, err)
			}
			p.UPS = float64(n) / time.Since(start).Seconds()
			p.Batches = s.Metrics().Batches
			s.Close()
		} else {
			dir, err := os.MkdirTemp("", "layph-recovery-")
			if err != nil {
				return rep, err
			}
			defer os.RemoveAll(dir)
			s, l, wall, err := runDurable(dir, g, sys,
				wal.Config{Sync: m.sync, CheckpointEvery: -1, Meta: "bench=recovery"}, micro, seq)
			if err != nil {
				return rep, fmt.Errorf("bench: recovery write path (%s): %w", m.name, err)
			}
			p.UPS = float64(n) / wall
			st := l.Stats()
			p.Batches, p.Fsyncs, p.WALBytes = st.Batches, st.Fsyncs, st.Bytes
			s.Close()
			l.Close()
		}
		if len(rep.WritePath) > 0 && p.UPS > 0 {
			p.Overhead = rep.WritePath[0].UPS / p.UPS
		} else {
			p.Overhead = 1
		}
		rep.WritePath = append(rep.WritePath, p)
	}

	// Recovery path: run the stream at each checkpoint cadence, stop it
	// WITHOUT the final checkpoint (the image a crash leaves), and time
	// the full recovery sequence back to a serving stream.
	for _, every := range recoveryCheckpointIntervals {
		dir, err := os.MkdirTemp("", "layph-recovery-")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(dir)
		cfg := wal.Config{Sync: wal.SyncOff, CheckpointEvery: every, Meta: "bench=recovery"}
		sg := base.Clone()
		s, l, _, err := runDurable(dir, sg, build(sg), cfg, micro, seq)
		if err != nil {
			return rep, fmt.Errorf("bench: recovery seed (every=%d): %w", every, err)
		}
		// Crash-style stop: close the stream and the log file, but cut no
		// final checkpoint — the WAL tail past the last periodic
		// checkpoint stays replayable. The engine graph mutated during
		// ingestion, which is why every phase builds on its own clone.
		if err := s.Close(); err != nil {
			return rep, err
		}
		if err := l.Close(); err != nil {
			return rep, err
		}

		start := time.Now()
		l2, rec, err := wal.Open(dir, cfg)
		if err != nil {
			return rep, fmt.Errorf("bench: recover (every=%d): %w", every, err)
		}
		if rec == nil {
			return rep, fmt.Errorf("bench: recover (every=%d): nothing to recover", every)
		}
		g := rec.Graph
		sys := build(g)
		rseq, updates := rec.CheckpointSeq, rec.CheckpointUpdates
		replayStart := time.Now()
		var replayed int64
		for _, r := range rec.Tail {
			applied := delta.Apply(g, r.Batch)
			if !applied.Empty() {
				sys.Update(applied)
			}
			rseq = r.Seq
			updates += uint64(len(r.Batch))
			replayed += int64(len(r.Batch))
		}
		replayMs := float64(time.Since(replayStart)) / float64(time.Millisecond)
		if err := l2.Start(rseq, updates, g, sys.States()); err != nil {
			return rep, fmt.Errorf("bench: recover (every=%d): %w", every, err)
		}
		s2 := stream.New(g, sys, stream.Config{
			MaxBatch: micro, MaxDelay: -1, Durability: l2,
			StartSeq: rseq, StartUpdates: updates,
		})
		total := float64(time.Since(start)) / float64(time.Millisecond)

		p := RecoveryPoint{
			CheckpointEvery: every,
			TailBatches:     int64(len(rec.Tail)),
			ReplayedUpdates: replayed,
			RecoverMillis:   total,
			LoadMillis:      float64(rec.LoadDuration) / float64(time.Millisecond),
			ReplayMillis:    replayMs,
		}
		if replayMs > 0 {
			p.ReplayUPS = float64(replayed) / (replayMs / 1000)
		}
		rep.Recovery = append(rep.Recovery, p)
		s2.Close()
		if err := l2.Close(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// RecoveryExperiment prints both tables and drops BENCH_recovery.json
// next to the invocation.
func RecoveryExperiment(w io.Writer, o Options) {
	rep, err := RunRecovery(o)
	if err != nil {
		fmt.Fprintf(w, "recovery experiment failed: %v\n", err)
		return
	}
	fmt.Fprintf(w, "Recovery (SSSP/Layph on UK, %d unit updates, micro-batch=%d, GOMAXPROCS=%d)\n",
		rep.Updates, rep.MicroBatch, rep.GOMAXPROCS)
	t := NewTable("mode", "updates/s", "batches", "fsyncs", "wal-bytes", "overhead")
	for _, p := range rep.WritePath {
		t.Row(p.Mode, p.UPS, p.Batches, p.Fsyncs, p.WALBytes, p.Overhead)
	}
	t.Print(w)
	fmt.Fprintln(w)
	t = NewTable("ckpt-every", "tail-batches", "replayed", "recover-ms", "load-ms", "replay-ms", "replay-ups")
	for _, p := range rep.Recovery {
		t.Row(p.CheckpointEvery, p.TailBatches, p.ReplayedUpdates, p.RecoverMillis, p.LoadMillis, p.ReplayMillis, p.ReplayUPS)
	}
	t.Print(w)
	if err := writeJSON(RecoveryJSONPath, rep); err != nil {
		fmt.Fprintf(w, "(could not write %s: %v)\n", RecoveryJSONPath, err)
	} else {
		fmt.Fprintf(w, "(wrote %s)\n", RecoveryJSONPath)
	}
}
