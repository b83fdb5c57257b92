package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary, recorded from the
// benchmark's side of that boundary. Spans of one replayed statement
// share Request; Parent is the ID of the span that caused this one, -1
// for a request's root. Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent, request int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// add records a span whose interval was measured elsewhere (a duration
// the layer itself reports, placed inside the call that produced it).
func (t *tracer) add(name string, parent, request int, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: start, End: end})
	return id
}

// call times fn as a child span and returns the span's duration.
func (t *tracer) call(name string, parent, request int, fn func()) time.Duration {
	id := t.begin(name, parent, request)
	fn()
	t.end(id)
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// computeSelf fills every span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent's interval).
func computeSelf(spans []span) {
	children := make(map[int][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// rootSelfShares returns, per request, the share of the root span that
// no child accounts for: the benchmark's own time between layer calls.
func rootSelfShares(spans []span) []float64 {
	var out []float64
	for i := range spans {
		if s := &spans[i]; s.Parent < 0 && s.End > s.Start {
			out = append(out, float64(s.Self)/float64(s.End-s.Start))
		}
	}
	return out
}

// durationsByName groups span durations (ns) by span name.
func durationsByName(spans []span) map[string][]int64 {
	out := map[string][]int64{}
	for i := range spans {
		out[spans[i].Name] = append(out[spans[i].Name], spans[i].End-spans[i].Start)
	}
	return out
}

// layerSummary is the per-name roll-up written beside the raw spans.
type layerSummary struct {
	Count    int     `json:"count"`
	MedianUs float64 `json:"median_us"`
	SelfUs   float64 `json:"median_self_us"`
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// WindowSpans is how many client.op spans the traced half of the
	// window recorded; the file keeps the first windowSpansKept of them.
	WindowSpans int                     `json:"window_spans"`
	Layers      map[string]layerSummary `json:"layers"`
	Spans       []span                  `json:"spans"`
}

const windowSpansKept = 1000

// writeTrace writes out/trace-<workload>.json under dir.
func writeTrace(dir, workload string, seed int64, windowSpans int, spans []span) (string, error) {
	self := map[string][]int64{}
	for i := range spans {
		self[spans[i].Name] = append(self[spans[i].Name], spans[i].Self)
	}
	layers := map[string]layerSummary{}
	for name, ds := range durationsByName(spans) {
		layers[name] = layerSummary{
			Count:    len(ds),
			MedianUs: medianOf(ds) / 1e3,
			SelfUs:   medianOf(self[name]) / 1e3,
		}
	}
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, WindowSpans: windowSpans, Layers: layers, Spans: spans,
	})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
