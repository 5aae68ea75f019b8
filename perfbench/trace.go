package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one traced operation
// share the operation's root span as their parent.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Iter   int     `json:"iter,omitempty"`
	Start  float64 `json:"start_s"` // since the tracer was made
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends; write stores them.
// It is safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id (ids start at 1; parent 0 is
// none).
func (t *tracer) start(parent int, name string, iter int) int {
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Iter: iter, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines under the work directory.
func (t *tracer) write(cfg config, workload string) error {
	path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
