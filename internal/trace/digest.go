package trace

import (
	"slices"
	"sync"

	"codesign/internal/sim"
)

// Digest implements sim.Observer: it folds each typed span into the
// run's overlap and per-phase totals as the span is emitted, and never
// stores the span itself. It keeps two 16-byte pointer-free edges per
// positive-length span (32 bytes, against the Recorder's 88-byte
// SpanEvent with three strings the garbage collector must scan) plus
// one PhaseTotals per distinct phase label. It is what a caller needs
// when it wants only the overlap decomposition (Overlap) and the phase
// classification (analysis.DigestPhases), as the design-space sweep
// does at every MethodSim point; exporters, the critical path,
// tracediff and the span archive need whole spans and use a Recorder.
//
// The zero value is ready to use. Reset clears it for reuse with its
// buffers kept.
type Digest struct {
	busy [NumSpanClasses]float64

	// starts and ends are the overlap sweep's interval endpoints in
	// emission order; the flags record whether each is still
	// nondecreasing, so Overlap sorts only when it must.
	starts, ends                 []edge
	startsUnsorted, endsUnsorted bool

	phases []PhaseTotals
	index  map[string]int // phase label -> phases index
	last   int            // phases index of the previous span's phase
}

// PhaseTotals is one phase label's folded activity: busy seconds per
// overlap class, payload bytes, and the earliest start and latest end
// of its spans in virtual time.
type PhaseTotals struct {
	// Phase is the span phase label ("" for unlabelled spans).
	Phase string
	// Busy sums span durations per overlap class (indexed by
	// SpanClass); concurrent activity double counts.
	Busy [NumSpanClasses]float64
	// Bytes is payload carried by the phase's spans.
	Bytes int64
	// Start and End bound the phase's spans.
	Start, End float64
}

// edge is one interval endpoint in the overlap sweep: a class opens at
// a span start and closes at its end.
type edge struct {
	t     float64
	class SpanClass
}

// Event ignores raw engine events (sim.Observer).
func (d *Digest) Event(float64, string, string) {}

// Span folds one completed typed span (sim.Observer). The overlap
// takes spans with End > Start; the phase fold also keeps shorter
// spans that carry bytes, so a zero-length transfer still counts
// toward its phase's payload.
func (d *Digest) Span(s sim.SpanEvent) {
	positive := s.End > s.Start
	if !positive && s.Bytes == 0 {
		return
	}
	cl := Classify(s)
	dur := s.End - s.Start
	if positive {
		d.busy[cl] += dur
		if n := len(d.starts); n > 0 && s.Start < d.starts[n-1].t {
			d.startsUnsorted = true
		}
		if n := len(d.ends); n > 0 && s.End < d.ends[n-1].t {
			d.endsUnsorted = true
		}
		d.starts = append(d.starts, edge{t: s.Start, class: cl})
		d.ends = append(d.ends, edge{t: s.End, class: cl})
	}
	p := d.phase(s)
	if s.Start < p.Start {
		p.Start = s.Start
	}
	if s.End > p.End {
		p.End = s.End
	}
	p.Bytes += s.Bytes
	p.Busy[cl] += dur
}

// phase returns the totals of s's phase, opening them at s's bounds on
// the phase's first span. Consecutive spans usually share a phase, so
// the previous one is checked before the index.
func (d *Digest) phase(s sim.SpanEvent) *PhaseTotals {
	if d.last < len(d.phases) && d.phases[d.last].Phase == s.Phase {
		return &d.phases[d.last]
	}
	i, ok := d.index[s.Phase]
	if !ok {
		if d.index == nil {
			d.index = make(map[string]int)
		}
		i = len(d.phases)
		d.index[s.Phase] = i
		d.phases = append(d.phases, PhaseTotals{Phase: s.Phase, Start: s.Start, End: s.End})
	}
	d.last = i
	return &d.phases[i]
}

// Phases returns the per-phase totals in order of first appearance in
// the span stream. The slice aliases the digest: it is valid until the
// next Span or Reset call.
func (d *Digest) Phases() []PhaseTotals { return d.phases }

// Reset discards everything folded so far, keeping the buffers.
func (d *Digest) Reset() {
	d.busy = [NumSpanClasses]float64{}
	d.starts, d.ends = d.starts[:0], d.ends[:0]
	d.startsUnsorted, d.endsUnsorted = false, false
	d.phases = d.phases[:0]
	clear(d.index)
	d.last = 0
}

// Overlap runs the attribution sweep over the folded spans. makespan
// extends the accounting window past the last span end (the tail is
// idle); pass the engine's final virtual time.
//
// The sweep is a two-way merge of close and open endpoints rather than
// a sort of the combined edge list: spans arrive in emission order,
// where end times are already nondecreasing, so only the start
// endpoints need sorting (verified, and sorted as a fallback, for
// reordered streams). Closes merge ahead of opens at the same instant
// so zero-length overlaps do not linger; order among equal-time
// endpoints of the same kind is irrelevant to the attribution because
// only intervals between distinct times carry weight.
func (d *Digest) Overlap(makespan float64) Overlap {
	o := Overlap{
		Makespan: makespan,
		BusyTf:   d.busy[ClassTf], BusyTp: d.busy[ClassTp], BusyTmem: d.busy[ClassTmem],
		BusyTcomm: d.busy[ClassTcomm], BusySync: d.busy[ClassSync],
	}
	byTime := func(a, b edge) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		default:
			return 0
		}
	}
	if d.startsUnsorted {
		slices.SortFunc(d.starts, byTime)
		d.startsUnsorted = false
	}
	if d.endsUnsorted {
		slices.SortFunc(d.ends, byTime)
		d.endsUnsorted = false
	}
	starts := d.starts
	var active [NumSpanClasses]int
	attribute := func(from, to float64) {
		if to <= from {
			return
		}
		dt := to - from
		switch {
		case active[ClassTf] > 0:
			o.Tf += dt
		case active[ClassTp] > 0:
			o.Tp += dt
		case active[ClassTmem] > 0:
			o.Tmem += dt
		case active[ClassTcomm] > 0:
			o.Tcomm += dt
		case active[ClassSync] > 0:
			o.Sync += dt
		default:
			o.Idle += dt
		}
	}

	prev := 0.0
	si := 0
	for _, ed := range d.ends {
		// Opens strictly before this close happen first; an open at
		// exactly ed.t merges after the close.
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
	// Every interval closes, so no starts can remain once ends drain.
	attribute(prev, makespan)
	return o
}

// digests recycles digests process wide: the design-space sweep folds
// every MethodSim point into one, and ComputeOverlap and
// analysis.ClassifyPhases fold a span slice into one per call, so
// their edge buffers grow once instead of per run.
var digests = sync.Pool{New: func() any { return new(Digest) }}

// GetDigest returns a reset digest from a process-wide pool. Return it
// with PutDigest once nothing reads it, or its Phases, any more.
func GetDigest() *Digest {
	d := digests.Get().(*Digest)
	d.Reset()
	return d
}

// PutDigest returns a digest from GetDigest to the pool.
func PutDigest(d *Digest) { digests.Put(d) }

// ComputeOverlap folds the spans into a pooled Digest and runs its
// overlap sweep (see Digest.Overlap). makespan extends the accounting
// window past the last span end; pass the engine's final virtual time.
func ComputeOverlap(spans []sim.SpanEvent, makespan float64) Overlap {
	d := GetDigest()
	defer PutDigest(d)
	for _, s := range spans {
		d.Span(s)
	}
	return d.Overlap(makespan)
}
