package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call. Times are nanoseconds since the trace started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the top
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one traced phase. A nil *tracer is
// the untraced phase: every method is a no-op, so workload code records
// unconditionally.
type tracer struct {
	t0     time.Time
	op     int
	spans  []span
	open   []int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// start opens a span nested in the innermost open one and returns its
// index for stop.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// stop closes span i and any span left open inside it.
func (t *tracer) stop(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	for n := len(t.open); n > 0; n-- {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		t.spans[top].End = now
		if top == i {
			return
		}
	}
}

// count adds to a named per-phase counter (e.g. ops executed under the
// npu.exec spans).
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// layerTime is one span name's totals over a traced phase.
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cur := s.Start // end of the covered stretch so far
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cur), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layers sums calls, total and self time per span name, sorted by name.
func layers(spans []span) []layerTime {
	self := selfTimes(spans)
	byName := map[string]*layerTime{}
	for i, s := range spans {
		l := byName[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			byName[s.Name] = l
		}
		l.Calls++
		l.TotalMS += float64(s.End-s.Start) / 1e6
		l.SelfMS += float64(self[i]) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, l := range byName {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans saves the traced phase's spans and per-layer self times as
// JSON under dir.
func writeSpans(dir, name string, spans []span, ls []layerTime) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{ls, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
