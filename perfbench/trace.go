package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one unit of work (a corpus chunk, a server job)
// share a Run id; Parent is the index of the enclosing span, or -1.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: Begin returns -1 and End does nothing, so the timed
// calls pay only a nil check.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent, run int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Start: now, End: now, Parent: parent, Run: run})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Time runs f inside a span and returns how long f took.
func (t *Tracer) Time(name string, parent, run int32, f func()) time.Duration {
	start := time.Now()
	id := t.Begin(name, parent, run)
	f()
	t.End(id)
	return time.Since(start)
}

// Add appends spans recorded by another tracer, whose epoch was epoch
// (Unix ns), moving them onto this tracer's timeline and renumbering
// their parents.
func (t *Tracer) Add(spans []Span, epoch int64) {
	shift := epoch - t.epoch.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := int32(len(t.spans))
	for _, s := range spans {
		s.Start += shift
		s.End += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line to path.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Children may overlap one another
// (parallel work under one parent) and are clipped to the parent's
// interval, so no instant is subtracted twice.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int32][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		d := s.End - s.Start
		d -= covered(children[int32(i)], s.Start, s.End)
		self[s.Name] += time.Duration(d)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi).
func covered(iv []Span, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, s := range iv {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// Durations groups span durations by name, for per-call percentiles.
func Durations(spans []Span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}
