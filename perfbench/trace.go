package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layerStat aggregates every span of one layer: how many ran, their
// summed duration, and their summed self time (duration minus the part
// covered by child spans).
type layerStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// span is one recorded call into a layer. Times are nanoseconds since
// the tracer was made; Parent is the index of the enclosing span in the
// tracer's span list, -1 for a root.
type span struct {
	Layer  string `json:"layer"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNS int64  `json:"self_ns"`
}

// frame is one open span on the tracer's stack.
type frame struct {
	layer   string
	start   int64
	childNS int64
	index   int // position in spans, -1 when the span is only aggregated
}

// tracer records spans around the benchmark's calls into the program's
// layers. Spans nest strictly: every span is opened and closed on the
// goroutine that drives the workload, so the children of a span never
// overlap and the part of it they cover is the sum of their durations.
// A nil *tracer records nothing, which is how untraced runs call the
// same code.
//
// Spans of layers entered millions of times per run (routing, batching
// decisions; see keepSpan) are only aggregated; every other span is
// kept in memory and written out by write when the run ends.
type tracer struct {
	now   func() int64
	stack []frame
	spans []span
	stats map[string]*layerStat
}

// newTracer returns a tracer on the monotonic clock.
func newTracer() *tracer {
	epoch := time.Now()
	return newTracerClock(func() int64 { return int64(time.Since(epoch)) })
}

func newTracerClock(now func() int64) *tracer {
	return &tracer{now: now, stats: make(map[string]*layerStat)}
}

// begin opens a span of layer; end closes the innermost open span.
func (t *tracer) begin(layer string) {
	if t == nil {
		return
	}
	f := frame{layer: layer, index: -1}
	if keepSpan(layer) {
		parent := -1
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].index >= 0 {
				parent = t.stack[i].index
				break
			}
		}
		f.index = len(t.spans)
		t.spans = append(t.spans, span{Layer: layer, Parent: parent})
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - f.start
	self := dur - f.childNS
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNS += dur
	}
	st := t.stats[f.layer]
	if st == nil {
		st = &layerStat{}
		t.stats[f.layer] = st
	}
	st.Count++
	st.TotalNS += dur
	st.SelfNS += self
	if f.index >= 0 {
		s := &t.spans[f.index]
		s.Start, s.End, s.SelfNS = f.start, end, self
	}
}

// stat returns the aggregate of one layer (zero when it never ran).
func (t *tracer) stat(layer string) layerStat {
	if t == nil || t.stats[layer] == nil {
		return layerStat{}
	}
	return *t.stats[layer]
}

// snapshot copies the per-layer aggregates recorded so far.
func (t *tracer) snapshot() map[string]layerStat {
	out := make(map[string]layerStat, len(t.stats))
	for layer, st := range t.stats {
		out[layer] = *st
	}
	return out
}

// selfSinceNS sums the self time recorded since base by every layer
// except the named ones: with the root layers named, the time spent
// inside the program's layers.
func (t *tracer) selfSinceNS(base map[string]layerStat, except ...string) int64 {
	var sum int64
	for layer, st := range t.stats {
		skip := false
		for _, e := range except {
			skip = skip || layer == e
		}
		if !skip {
			sum += st.SelfNS - base[layer].SelfNS
		}
	}
	return sum
}

// write stores the kept spans and the per-layer aggregates as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if len(t.stack) != 0 {
		return fmt.Errorf("trace: %d spans still open", len(t.stack))
	}
	return writeJSON(path, struct {
		Layers map[string]*layerStat `json:"layers"`
		Spans  []span                `json:"spans"`
	}{t.stats, t.spans})
}

// writeJSON writes v to path as JSON, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
