package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Parent is the enclosing span's ID (0 for a root) and Req
// groups the spans of one replayed point or request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type spanRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (r *spanRecorder) begin(name string, parent, req int64) int64 {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration in seconds.
func (r *spanRecorder) end(id int64) float64 {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return float64(s.End-s.Start) / 1e9
}

// add records an interval measured elsewhere (a sweep point's
// evaluation time, reported after the fact by OnProgress).
func (r *spanRecorder) add(name string, parent, req int64, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

// timed runs fn inside a span and returns its duration in seconds.
func (r *spanRecorder) timed(name string, parent, req int64, fn func()) float64 {
	id := r.begin(name, parent, req)
	fn()
	return r.end(id)
}

// snapshot copies the recorded spans.
func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes one span per line (JSONL) to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes folds spans into each span's self time in nanoseconds: its
// duration minus the part of its interval that its children cover.
// Children that overlap each other (concurrent work under one parent)
// are counted once, and child time outside the parent is ignored. Open
// spans (End < Start) count as zero.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		d := s.End - s.Start
		if d <= 0 {
			self[s.ID] = 0
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curLo, curHi int64
		open := false
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curHi {
				curHi = max(curHi, hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = lo, hi, true
		}
		if open {
			covered += curHi - curLo
		}
		self[s.ID] = d - covered
	}
	return self
}
