package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the harness made into a layer. Spans of one
// top-level operation share Req; Parent is the span that issued the call
// (0 for a root). N counts the work items the call covered — candidates for
// a gain batch, for example — where that is meaningful.
type Span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // since the tracer's epoch
	N               int64
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths pay one nil check per call.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// active is an open span; End records it.
type active struct {
	t               *Tracer
	id, parent, req int64
	name            string
	start           time.Duration
}

// Begin opens a span. On a nil tracer it returns an inert span.
func (t *Tracer) Begin(name string, parent, req int64) active {
	if t == nil {
		return active{}
	}
	return active{t: t, id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Since(t.epoch)}
}

// End closes the span, recording n work items.
func (a active) End(n int64) {
	if a.t == nil {
		return
	}
	end := time.Since(a.t.epoch)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, Span{ID: a.id, Parent: a.parent, Req: a.req, Name: a.name, Start: a.start, End: end, N: n})
	a.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines, one span per line, ordered by
// start time.
func (t *Tracer) WriteFile(path string) error {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			ID      int64   `json:"id"`
			Parent  int64   `json:"parent"`
			Req     int64   `json:"req"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
			N       int64   `json:"n,omitempty"`
		}{s.ID, s.Parent, s.Req, s.Name, us(s.Start), us(s.End), s.N}
		if err := enc.Encode(line); err != nil {
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

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children. Children that run concurrently (a
// sharded sweep, a scatter to two shards) are counted once: the union of
// their intervals, clipped to the parent, is what is subtracted.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// named returns the spans called name.
func named(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianMS is the median span duration in milliseconds, 0 without spans.
func medianMS(spans []Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	d := make([]float64, len(spans))
	for i, s := range spans {
		d[i] = ms(s.End - s.Start)
	}
	return median(d)
}

// spanKey carries the current span and request id through a context, so a
// layer wrapper the harness hands to the system (the timing shard
// connection) can parent its spans under the harness call that led to it.
type spanKey struct{}

type spanRef struct{ id, req int64 }

func withSpan(ctx context.Context, a active) context.Context {
	if a.t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{a.id, a.req})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// spanPath names the default span file for a traced run.
func spanPath(dir, workload string, seed uint64) string {
	return filepath.Join(dir, "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
