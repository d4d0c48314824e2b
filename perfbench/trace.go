package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphpi/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the id of the enclosing span (0 at the root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op and allocates nothing, and
// newStats hands out no stats sinks.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu; index i holds id i+1
}

// spansRecorded and sinksAllocated count, over the process, the spans
// opened and the stats sinks handed out, so a test can confirm that an
// untraced run does neither.
var spansRecorded, sinksAllocated atomic.Int64

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	spansRecorded.Add(1)
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// newStats returns a per-level stats sink for an n-level schedule, or nil
// when untraced so the engine runs its telemetry-free path.
func (t *tracer) newStats(n int) *telemetry.RunStats {
	if t == nil {
		return nil
	}
	sinksAllocated.Add(1)
	return telemetry.NewRunStats(n)
}

// durations returns the durations of every closed span with this name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// layerTime aggregates the spans of one name: how often the layer was
// entered, its total time, and its self time (total minus the part of each
// span that its children cover).
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes computes per-name totals and self times. Children of one span
// may overlap (concurrent clients), so the covered part is the union of
// their intervals, clipped to the parent.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		dur := s.End - s.Start
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.TotalS += dur
		lt.SelfS += dur - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered returns the length of the union of the children's intervals
// inside the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := math.Max(k.Start, parent.Start), math.Min(k.End, parent.End)
		if k.End > 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// write saves the spans, the per-layer self times and the run's detail
// records (per-pattern breakdowns) as one JSON document.
func (t *tracer) write(path string, detail any) error {
	layers := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		Layers []layerTime `json:"layers"`
		Detail any         `json:"detail"`
		Spans  []span      `json:"spans"`
	}{layers, detail, t.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
