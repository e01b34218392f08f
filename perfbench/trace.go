package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer was created. Parent is the ID of the span
// that caused this one (0 for a root); spans of one request or job share
// Trace.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Size is the call's payload where the seam knows it: bytes for
	// storage and operator calls, rows for scoring calls.
	Size int64 `json:"size,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; write dumps them when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// seam at most — and the seams are only wrapped at all when tracing.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	// paused drops spans while it is set.
	paused atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now returns the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// newID allocates a span or trace identifier (never 0).
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// on reports whether spans are being recorded.
func (t *tracer) on() bool { return t != nil && !t.paused.Load() }

// record stores a finished span.
func (t *tracer) record(s span) {
	if !t.on() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a span and returns the function that closes it; the span is
// recorded when end runs.
func (t *tracer) begin(name string, parent, trace uint64) (id uint64, end func(size int64)) {
	if t == nil {
		return 0, func(int64) {}
	}
	id = t.newID()
	start := t.now()
	return id, func(size int64) {
		t.record(span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: t.now(), Size: size})
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines to path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// spanSet indexes recorded spans for the per-layer aggregations.
type spanSet struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) *spanSet {
	s := &spanSet{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, sp := range spans {
		s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		if sp.Parent != 0 {
			s.children[sp.Parent] = append(s.children[sp.Parent], sp)
		}
	}
	return s
}

// total sums the durations of the named spans, in seconds.
func (s *spanSet) total(name string) float64 {
	var d time.Duration
	for _, sp := range s.byName[name] {
		d += sp.dur()
	}
	return d.Seconds()
}

// count is the number of named spans.
func (s *spanSet) count(name string) int { return len(s.byName[name]) }

// size sums the payload of the named spans.
func (s *spanSet) size(name string) int64 {
	var b int64
	for _, sp := range s.byName[name] {
		b += sp.Size
	}
	return b
}

// micros returns the named spans' durations in microseconds.
func (s *spanSet) micros(name string) []float64 {
	out := make([]float64, 0, len(s.byName[name]))
	for _, sp := range s.byName[name] {
		out = append(out, float64(sp.dur())/1e3)
	}
	return out
}

// selfTime sums, over the named spans, each span's duration minus the part
// of its interval covered by the union of its children, in seconds.
func (s *spanSet) selfTime(name string) float64 {
	var self time.Duration
	for _, sp := range s.byName[name] {
		self += sp.dur() - coveredBy(sp, s.children[sp.ID])
	}
	return self.Seconds()
}

// coveredBy is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredBy(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return time.Duration(covered)
}
