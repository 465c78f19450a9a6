package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req
// (0 is the replay's set-up); Parent is the enclosing span's ID, or -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. The replay is
// sequential, so one goroutine owns it and it needs no lock.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		StartUS: time.Since(t.origin).Microseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndUS = time.Since(t.origin).Microseconds() }

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, req int, f func() error) error {
	id := t.begin(name, parent, req)
	err := f()
	t.end(id)
	return err
}

// totals returns, per span name, the summed duration and the summed self
// time: a span's duration minus the part its child spans cover. Children
// of one span never overlap because the replay is sequential.
func (t *tracer) totals() (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.EndUS-s.StartUS) * time.Microsecond
		}
	}
	for i, s := range t.spans {
		d := time.Duration(s.EndUS-s.StartUS) * time.Microsecond
		total[s.Name] += d
		self[s.Name] += d - children[i]
	}
	return total, self
}

// sum returns the summed duration of the spans called name whose request
// passes keep.
func (t *tracer) sum(name string, keep func(req int) bool) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && keep(s.Req) {
			d += time.Duration(s.EndUS-s.StartUS) * time.Microsecond
		}
	}
	return d
}

// write saves the spans and the per-name self times as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	_, self := t.totals()
	selfMS := make(map[string]float64, len(self))
	for k, v := range self {
		selfMS[k] = ms(v)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, selfMS, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// printSelf writes the per-name time table, largest self time first.
func (t *tracer) printSelf(w io.Writer) {
	total, self := t.totals()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-22s %12s %12s\n", "span", "self_ms", "total_ms")
	for _, k := range names {
		fmt.Fprintf(w, "%-22s %12.1f %12.1f\n", k, ms(self[k]), ms(total[k]))
	}
}
