package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the benchmark's own spans in memory — one around each call
// the benchmark makes into a layer — and writes them out when the run ends,
// so recording costs a slice append and no I/O while measuring. A nil
// *tracer records nothing; untraced runs pay one nil check per span.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one written span. Times are nanoseconds since the run's
// trace origin; Parent is 0 for a root span; spans of one request share
// Request.
type spanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request string `json:"request,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end closes and records it.
type span struct {
	t       *tracer
	id      uint64
	parent  uint64
	name    string
	request string
	start   time.Time
}

// begin opens a span under parent (0 for a root). It returns nil on a nil
// tracer, and every span method accepts a nil receiver.
func (t *tracer) begin(name, request string, parent uint64) *span {
	if t == nil {
		return nil
	}
	return &span{t: t, id: t.nextID.Add(1), parent: parent, name: name, request: request, start: time.Now()}
}

// ID is the span's identity for its children; 0 when not tracing.
func (s *span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// setRequest names the request the span served, once the layer has
// returned the ID it minted.
func (s *span) setRequest(request string) {
	if s != nil {
		s.request = request
	}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.t.add(s.id, s.parent, s.name, s.request, s.start, time.Now())
}

// child records an already-finished sub-interval of s, for phases a layer
// reports in its return value (such as a call's finding time).
func (s *span) child(name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.t.add(s.t.nextID.Add(1), s.id, name, s.request, start, end)
}

func (t *tracer) add(id, parent uint64, name, request string, start, end time.Time) {
	rec := spanRecord{
		ID: id, Parent: parent, Name: name, Request: request,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// count reports the spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
