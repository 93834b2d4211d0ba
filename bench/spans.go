package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the harness into a layer's public API.
// Spans of one operation (a study iteration, a campaign day, a tracking
// step, a query) share Op; Parent is the span that caused this one (0 =
// root). Times are nanoseconds since the recorder started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans and boundary counters in memory and writes them
// out once, at exit. A nil *Recorder is tracing off: every method is a
// no-op, so workloads call it unconditionally and the untraced run pays
// one nil check per call site.
type Recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	counts map[string]int64
}

func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), counts: map[string]int64{}}
}

// Start opens a span and returns its id (0 when tracing is off).
func (r *Recorder) Start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// End closes a span opened by Start.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Count adds n to a named boundary counter.
func (r *Recorder) Count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// SpanTotals aggregates the spans of one name.
type SpanTotals struct {
	Name    string `json:"name"`
	Calls   int    `json:"calls"`
	TotalNS int64  `json:"total_ns"`
	// SelfNS is total minus the part of each span its children cover.
	SelfNS int64 `json:"self_ns"`
}

// selfTimes computes, for every closed span, its duration minus the
// part of that interval covered by its direct children (overlapping
// children — concurrent calls — are counted once), aggregated by name.
func selfTimes(spans []Span) []SpanTotals {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.End >= s.Start && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*SpanTotals{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		t := byName[s.Name]
		if t == nil {
			t = &SpanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		dur := s.End - s.Start
		t.Calls++
		t.TotalNS += dur
		t.SelfNS += dur - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]SpanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of [start, end) covered by the union of the
// given spans, each clipped to the interval.
func covered(start, end int64, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// traceFile is the on-disk shape of one traced run.
type traceFile struct {
	Workload string           `json:"workload"`
	Box      Box              `json:"box"`
	Totals   []SpanTotals     `json:"totals"`
	Counts   map[string]int64 `json:"counts"`
	Spans    []Span           `json:"spans"`
}

// WriteFile writes every span, the per-name self-time totals and the
// counters to path.
func (r *Recorder) WriteFile(path, workload string, box Box) error {
	r.mu.Lock()
	tf := traceFile{Workload: workload, Box: box, Totals: selfTimes(r.spans), Counts: r.counts, Spans: r.spans}
	data, err := json.Marshal(tf)
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
