package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary: the benchmark wraps each
// call it makes into a repository package in one. Spans of one session (a
// served session, a figure pass, one benchmark's pipeline job) share its
// Session ID.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Session int64  `json:"session"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer). Parent 0 is
// the root.
func (t *tracer) begin(parent int, session int64, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Session: session, Name: name, StartNs: now})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// spansNamed returns the closed spans with the given name.
func (t *tracer) spansNamed(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, s)
		}
	}
	return out
}

// seconds is the summed duration of the closed spans with the given name.
func (t *tracer) seconds(name string) float64 {
	var ns int64
	for _, s := range t.spansNamed(name) {
		ns += s.EndNs - s.StartNs
	}
	return float64(ns) / 1e9
}

// meanSeconds is the mean duration of the closed spans with the given name.
func (t *tracer) meanSeconds(name string) float64 {
	return ratio(t.seconds(name), float64(len(t.spansNamed(name))))
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfSeconds sums, per layer, each span's duration minus the part of it
// that its child spans cover. Children may overlap (jobs on a parallel
// pool), so the covered part is the union of their intervals.
func (t *tracer) selfSeconds() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.EndNs == 0 {
			continue
		}
		self := s.EndNs - s.StartNs - covered(s, children[s.ID])
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if k.EndNs > 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
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

// write saves the spans as JSON under dir, named for the run.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	t.mu.Lock()
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	n := len(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (%d spans)", path, n), nil
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
