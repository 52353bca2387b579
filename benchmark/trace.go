package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions (this PR adds no spans inside the
// program). Parent is the ID of the span that caused it, 0 for a root;
// Iter groups the spans of one iteration. Replayed marks a phase
// measured by re-running it on the parent's inputs right after the
// parent returned, so its interval lies after the parent's, not inside.
type span struct {
	ID       int       `json:"id"`
	Parent   int       `json:"parent"`
	Iter     int       `json:"iter"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Replayed bool      `json:"replayed,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run calls the same code.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID; end closes it.
func (r *recorder) begin(name string, parent, iter int, replayed bool) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Iter: iter, Name: name, Start: now, Replayed: replayed})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.End.Sub(s.Start)
}

// timed runs f inside a span and returns its duration. It measures even
// without a recorder, so layer code reads the same traced or not.
func (r *recorder) timed(name string, parent, iter int, replayed bool, f func()) time.Duration {
	id := r.begin(name, parent, iter, replayed)
	start := time.Now()
	f()
	d := time.Since(start)
	r.end(id)
	return d
}

// selfTimes returns, for every span with this name, its duration minus
// the part its direct, non-replayed children cover, in seconds.
func (r *recorder) selfTimes(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if !s.Replayed {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, selfTime(s, children[s.ID]).Seconds())
		}
	}
	return out
}

// write stores the spans as JSON, creating the directory if needed.
func (r *recorder) write(path string, env map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"env": env, "spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
