package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call made by the benchmark into a layer. Spans nest
// by call order: a span begun while another is open is its child.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	n := len(t.open)
	t.spans[t.open[n-1]].End = int64(time.Since(t.t0))
	t.open = t.open[:n-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// layerTime is the self time of every span of one name.
type layerTime struct {
	Self  time.Duration
	Calls int
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	child := make([]int64, len(t.spans)+1) // by span ID
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.Self += time.Duration(s.End - s.Start - child[s.ID])
		lt.Calls++
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// meanMs is a layer's mean self time per call in ms, or 0 if it never ran.
func meanMs(lt layerTime) float64 {
	if lt.Calls == 0 {
		return 0
	}
	return ms(lt.Self) / float64(lt.Calls)
}
