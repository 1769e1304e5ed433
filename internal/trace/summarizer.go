package trace

import (
	"slices"
	"strings"

	"codesign/internal/sim"
)

// Summarizer implements sim.Observer: it builds a run's Summary as the
// run emits spans, and never stores a span. Each span updates the
// per-process and per-resource tallies and the byte counters, and is
// folded into an embedded Digest for the overlap decomposition, so a
// Summarizer keeps one entry per distinct process and resource plus the
// Digest's 32 pointer-free bytes per positive-length span. It is what
// a run with Telemetry enabled attaches.
//
// Sums are taken in emission order, span by span, so the Summary is
// bit-identical to one folded from the same spans buffered first.
//
// The zero value is ready to use.
type Summarizer struct {
	digest Digest

	spans, events       int
	dramBytes, netBytes int64

	procs     []ProcStats
	resources []ResourceStats
	procIndex map[string]int // process name -> procs index
	resIndex  map[string]int // resource name -> resources index
}

// Event counts one raw engine action (sim.Observer).
func (s *Summarizer) Event(float64, string, string) { s.events++ }

// Span folds one completed typed span (sim.Observer).
func (s *Summarizer) Span(sp sim.SpanEvent) {
	s.spans++
	s.digest.Span(sp)
	d := sp.End - sp.Start
	sync := sp.Category == sim.CatSync
	p := s.proc(sp.Proc)
	if sync {
		p.Waiting += d
	} else {
		p.Busy += d
		p.Bytes += sp.Bytes
	}
	if sp.Resource != "" {
		r := s.resource(sp.Resource)
		r.Spans++
		if sync {
			r.Contention += d
		} else {
			r.Busy += d
			r.Bytes += sp.Bytes
		}
	}
	switch sp.Category {
	case sim.CatDMA:
		s.dramBytes += sp.Bytes
	case sim.CatNetwork:
		s.netBytes += sp.Bytes
	}
}

// proc returns the tallies of the named process, opening them on its
// first span.
func (s *Summarizer) proc(name string) *ProcStats {
	i, ok := s.procIndex[name]
	if !ok {
		if s.procIndex == nil {
			s.procIndex = make(map[string]int)
		}
		i = len(s.procs)
		s.procIndex[name] = i
		s.procs = append(s.procs, ProcStats{Name: name})
	}
	return &s.procs[i]
}

// resource returns the tallies of the named resource, opening them on
// its first span.
func (s *Summarizer) resource(name string) *ResourceStats {
	i, ok := s.resIndex[name]
	if !ok {
		if s.resIndex == nil {
			s.resIndex = make(map[string]int)
		}
		i = len(s.resources)
		s.resIndex[name] = i
		s.resources = append(s.resources, ResourceStats{Name: name})
	}
	return &s.resources[i]
}

// Summary returns the run's summary so far: per-process busy/wait,
// per-resource busy/contention, bytes moved, and the overlap
// decomposition against the given makespan (pass the engine's final
// virtual time). Procs and Resources are sorted by name, and the
// returned slices are the caller's.
func (s *Summarizer) Summary(makespan float64) *Summary {
	out := &Summary{
		Makespan:     makespan,
		Spans:        s.spans,
		Events:       s.events,
		DRAMBytes:    s.dramBytes,
		NetworkBytes: s.netBytes,
		Overlap:      s.digest.Overlap(makespan),
	}
	if len(s.procs) > 0 {
		out.Procs = slices.Clone(s.procs)
		slices.SortFunc(out.Procs, func(a, b ProcStats) int { return strings.Compare(a.Name, b.Name) })
	}
	if len(s.resources) > 0 {
		out.Resources = slices.Clone(s.resources)
		slices.SortFunc(out.Resources, func(a, b ResourceStats) int { return strings.Compare(a.Name, b.Name) })
	}
	return out
}
