package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// tracer records spans around the calls the benchmark makes into each
// layer's public functions. It is single-goroutine: every traced call
// is made from the repetition's own goroutine, so the open-span stack
// is the causal parent chain.
//
// Two kinds of span exist. A call span covers one call (start, end).
// An aggregate span sums many short calls made under one parent — the
// per-message observer calls inside machine.Run, the per-window reads
// inside EvaluateStream — where a span per call would cost more than
// the call itself. Both count toward their parent's child time.
//
// A nil *tracer is the untraced run: every method is a no-op, so the
// measured code path differs from the traced one only by nil checks.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open call spans
	counts map[string]float64
}

type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // -1 for a root span
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Calls > 0 marks an aggregate span; Total is the summed duration
	// of its calls and Start/End are unused.
	Calls int64   `json:"calls,omitempty"`
	Total float64 `json:"total_s,omitempty"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a call span under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.parent(), Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open call span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
}

// aggregate opens an aggregate span under the innermost open span and
// returns its handle for add.
func (t *tracer) aggregate(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.parent()})
	return len(t.spans) - 1
}

// add charges one call of duration d to aggregate span i.
func (t *tracer) add(i int, d time.Duration) {
	if t == nil {
		return
	}
	t.spans[i].Calls++
	t.spans[i].Total += d.Seconds()
}

// count adds v to a named count recorded at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] += v
}

func (s span) duration() float64 {
	if s.Calls > 0 {
		return s.Total
	}
	return s.End - s.Start
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its direct children.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.duration()
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		self[s.Name] += s.duration() - child[i]
	}
	return self
}

// rootTime returns the summed duration of the root spans named name.
func (t *tracer) rootTime(name string) float64 {
	var d float64
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == name {
			d += s.duration()
		}
	}
	return d
}

// layerSelf sums self times by layer: the span name up to its first
// dot. The benchmark's own spans ("bench.*") sum under "bench": the glue
// between layer calls, not a layer.
func layerSelf(self map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, d := range self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += d
	}
	return out
}

// writeJSON writes the spans and counts to path.
func (t *tracer) writeJSON(path string) error {
	names := make([]string, 0, len(t.counts))
	for n := range t.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	type count struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	doc := struct {
		Spans  []span  `json:"spans"`
		Counts []count `json:"counts"`
	}{Spans: t.spans}
	for _, n := range names {
		doc.Counts = append(doc.Counts, count{n, t.counts[n]})
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
