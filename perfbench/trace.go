package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one batch or
// one request share Trace; Link is the trace a span caused or was covered
// by (a /push request links to the snapshot seq that published it).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	Link   int64  `json:"link,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id. A nil tracer records nothing.
func (t *tracer) add(parent int64, name string, trace int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Trace: trace,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// link sets the causal link of span id.
func (t *tracer) link(id, to int64) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Link = to
	t.mu.Unlock()
}

type selfTime struct {
	name            string
	n               int
	totalMs, selfMs float64
}

// selfTimes sums, per span name, the spans' durations and their self time:
// the duration minus the part of the interval the span's children cover.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	var names []string
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{name: s.Name}
			agg[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.totalMs += float64(s.End-s.Start) / 1e6
		a.selfMs += float64(s.End-s.Start-covered(s, kids[s.ID])) / 1e6
	}
	sort.Strings(names)
	out := make([]selfTime, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	return out
}

// selfMean is the mean self time in ms of the spans called name.
func (t *tracer) selfMean(name string) float64 {
	for _, s := range t.selfTimes() {
		if s.name == name && s.n > 0 {
			return s.selfMs / float64(s.n)
		}
	}
	return 0
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
