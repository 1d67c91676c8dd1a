package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run: the workload, one operation,
// or one call the benchmark makes into a layer's public function.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for the root
	Op     int                `json:"op"`     // ID of the enclosing operation span; -1 outside one
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"` // since the tracer started
	End    time.Duration      `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`

	mem *runtime.MemStats // allocation stats at Begin, for BeginMem spans
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so the timed runs pay one nil
// check per layer call. Parents are explicit rather than a stack, so spans
// may begin on engine worker goroutines (checkpoint snapshots) safely.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{start: time.Now()} }

// Begin opens a span under parent (-1 for a root) and returns its ID.
func (t *Tracer) Begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	op := -1
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// BeginOp opens an operation span: it and its descendants share its ID as
// their operation ID.
func (t *Tracer) BeginOp(parent int, name string) int {
	id := t.BeginMem(parent, name)
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].Op = id
		t.mu.Unlock()
	}
	return id
}

// BeginMem is Begin plus runtime allocation counts: End attaches the span's
// mallocs, allocated bytes and GC cycles. Reading them stops the world
// briefly, so it is used only where the counts are reported.
func (t *Tracer) BeginMem(parent int, name string) int {
	if t == nil {
		return -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	id := t.Begin(parent, name)
	t.mu.Lock()
	t.spans[id].mem = &ms
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.start)
	t.mu.Lock()
	before := t.spans[id].mem
	t.mu.Unlock()
	var ms runtime.MemStats
	if before != nil {
		runtime.ReadMemStats(&ms)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if before != nil {
		s.setCount("mallocs", float64(ms.Mallocs-before.Mallocs))
		s.setCount("alloc_bytes", float64(ms.TotalAlloc-before.TotalAlloc))
		s.setCount("gc_cycles", float64(ms.NumGC-before.NumGC))
		s.mem = nil
	}
}

// Count adds v to counter key of span id.
func (t *Tracer) Count(id int, key string, v float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].setCount(key, t.spans[id].Counts[key]+v)
}

func (s *Span) setCount(key string, v float64) {
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[key] = v
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover. Overlapping children
// (concurrent layer calls) are counted once.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end time.Duration
		for _, v := range ivs {
			if v.lo > end {
				end = v.lo
			}
			if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// Sum returns the total duration and the summed counter values of the spans
// named name inside operation op.
func Sum(spans []Span, op int, name string) (time.Duration, map[string]float64) {
	var d time.Duration
	counts := make(map[string]float64)
	for _, s := range spans {
		if s.Op == op && s.Name == name {
			d += s.End - s.Start
			for k, v := range s.Counts {
				counts[k] += v
			}
		}
	}
	return d, counts
}

// WriteFile writes the spans and their self times as one JSON document.
func WriteFile(path string, spans []Span, record any) error {
	self := SelfTimes(spans)
	type out struct {
		Span
		SelfNS time.Duration `json:"self_ns"`
	}
	doc := struct {
		Record any   `json:"record"`
		Spans  []out `json:"spans"`
	}{Record: record}
	for i, s := range spans {
		doc.Spans = append(doc.Spans, out{s, self[i]})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
