package trace_test

import (
	"slices"

	"codesign/internal/sim"
	"codesign/internal/trace"
)

// The straightforward implementation the streaming Digest replaced.
// Tests compare against it; nothing else runs it.

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
