package trace_test

import (
	"slices"
	"sort"

	"codesign/internal/sim"
	"codesign/internal/trace"
)

// The straightforward implementations the streaming Digest and
// Summarizer replaced. Tests compare against them; nothing else runs
// them.

// refEdge is one interval endpoint of the reference sweep.
type refEdge struct {
	t     float64
	class trace.SpanClass
}

// referenceComputeOverlap is ComputeOverlap over a span slice: busy
// sums and edges collected in one pass, then the close/open merge.
func referenceComputeOverlap(spans []sim.SpanEvent, makespan float64) trace.Overlap {
	o := trace.Overlap{Makespan: makespan}
	var starts, ends []refEdge
	startsSorted, endsSorted := true, true
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		cl := trace.Classify(s)
		d := s.End - s.Start
		switch cl {
		case trace.ClassTf:
			o.BusyTf += d
		case trace.ClassTp:
			o.BusyTp += d
		case trace.ClassTmem:
			o.BusyTmem += d
		case trace.ClassTcomm:
			o.BusyTcomm += d
		case trace.ClassSync:
			o.BusySync += d
		}
		if len(starts) > 0 && s.Start < starts[len(starts)-1].t {
			startsSorted = false
		}
		if len(ends) > 0 && s.End < ends[len(ends)-1].t {
			endsSorted = false
		}
		starts = append(starts, refEdge{t: s.Start, class: cl})
		ends = append(ends, refEdge{t: s.End, class: cl})
	}
	byTime := func(a, b refEdge) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		default:
			return 0
		}
	}
	if !startsSorted {
		slices.SortFunc(starts, byTime)
	}
	if !endsSorted {
		slices.SortFunc(ends, byTime)
	}

	var active [trace.NumSpanClasses]int
	attribute := func(from, to float64) {
		if to <= from {
			return
		}
		d := to - from
		switch {
		case active[trace.ClassTf] > 0:
			o.Tf += d
		case active[trace.ClassTp] > 0:
			o.Tp += d
		case active[trace.ClassTmem] > 0:
			o.Tmem += d
		case active[trace.ClassTcomm] > 0:
			o.Tcomm += d
		case active[trace.ClassSync] > 0:
			o.Sync += d
		default:
			o.Idle += d
		}
	}

	prev := 0.0
	si := 0
	for _, ed := range ends {
		for si < len(starts) && starts[si].t < ed.t {
			attribute(prev, starts[si].t)
			prev = starts[si].t
			active[starts[si].class]++
			si++
		}
		attribute(prev, ed.t)
		prev = ed.t
		active[ed.class]--
	}
	attribute(prev, makespan)
	return o
}

// referenceSummarize is the Summary of a buffered span slice, with
// events raw engine events: per-process and per-resource tallies in one
// pass over the spans, then the reference overlap sweep.
func referenceSummarize(spans []sim.SpanEvent, events int, makespan float64) *trace.Summary {
	s := &trace.Summary{
		Makespan: makespan,
		Spans:    len(spans),
		Events:   events,
	}
	procs := map[string]*trace.ProcStats{}
	ress := map[string]*trace.ResourceStats{}
	for _, sp := range spans {
		d := sp.End - sp.Start
		p := procs[sp.Proc]
		if p == nil {
			p = &trace.ProcStats{Name: sp.Proc}
			procs[sp.Proc] = p
		}
		if sp.Category == sim.CatSync {
			p.Waiting += d
		} else {
			p.Busy += d
			p.Bytes += sp.Bytes
		}
		if sp.Resource != "" {
			res := ress[sp.Resource]
			if res == nil {
				res = &trace.ResourceStats{Name: sp.Resource}
				ress[sp.Resource] = res
			}
			res.Spans++
			if sp.Category == sim.CatSync {
				res.Contention += d
			} else {
				res.Busy += d
				res.Bytes += sp.Bytes
			}
		}
		switch sp.Category {
		case sim.CatDMA:
			s.DRAMBytes += sp.Bytes
		case sim.CatNetwork:
			s.NetworkBytes += sp.Bytes
		}
	}
	for _, k := range sortedNames(procs) {
		s.Procs = append(s.Procs, *procs[k])
	}
	for _, k := range sortedNames(ress) {
		s.Resources = append(s.Resources, *ress[k])
	}
	s.Overlap = referenceComputeOverlap(spans, makespan)
	return s
}

func sortedNames[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
