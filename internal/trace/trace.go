package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"codesign/internal/sim"
)

// Event is one recorded engine action.
type Event struct {
	// Time is the virtual time of the action.
	Time float64
	// Proc names the process the action concerns.
	Proc string
	// Action is the engine's action string ("resume", "block: ...").
	Action string
}

// Collector accumulates the raw events of a simulation engine. It is a
// sim.Observer that ignores typed spans.
type Collector struct {
	events []Event
	// Filter, if non-nil, drops events for which it returns false.
	Filter func(e Event) bool
	// Limit caps the number of stored events (0 = unlimited). Once
	// reached, further events are counted but not stored.
	Limit   int
	dropped int64
}

// Event stores one raw engine event, honoring Filter and Limit.
func (c *Collector) Event(t float64, proc, action string) {
	ev := Event{Time: t, Proc: proc, Action: action}
	if c.Filter != nil && !c.Filter(ev) {
		return
	}
	if c.Limit > 0 && len(c.events) >= c.Limit {
		c.dropped++
		return
	}
	c.events = append(c.events, ev)
}

// Span implements sim.Observer; the collector keeps raw events only.
func (c *Collector) Span(sim.SpanEvent) {}

// Events returns the recorded events in order.
func (c *Collector) Events() []Event {
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Dropped returns how many events exceeded Limit.
func (c *Collector) Dropped() int64 { return c.dropped }

// Len returns the stored event count.
func (c *Collector) Len() int { return len(c.events) }

// WriteCSV renders the events as RFC-4180 CSV with a
// "time_s,process,action" header. Fields containing commas, quotes or
// newlines are quoted, not rewritten.
func (c *Collector) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "process", "action"}); err != nil {
		return err
	}
	for _, e := range c.events {
		row := []string{strconv.FormatFloat(e.Time, 'f', 9, 64), e.Proc, e.Action}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Span is a contiguous busy interval of one process.
type Span struct {
	// Proc names the process.
	Proc string
	// Start and End bound the interval in virtual seconds.
	Start, End float64
}

// Spans derives busy intervals per process. Computation is modeled as
// timed waits in the engine, so a "block: wait" opens a busy span that
// the process's next "resume" closes; blocking on resources, mailboxes
// or signals is idle time and produces no span.
//
// Invariant: the engine emits strictly alternating block/resume pairs
// per process, so at most one span is open per process at a time. The
// derivation still defends against malformed streams (hand-built or
// filtered collectors): a second "block: wait" before the matching
// "resume" closes the open span at the new block time instead of
// silently discarding the earlier interval, and a trailing open span
// with no final "resume" is dropped because its end is unknown.
func (c *Collector) Spans() []Span {
	open := map[string]float64{}
	var spans []Span
	for _, e := range c.events {
		switch {
		case strings.HasPrefix(e.Action, "block: wait"):
			if s, ok := open[e.Proc]; ok && e.Time > s {
				spans = append(spans, Span{Proc: e.Proc, Start: s, End: e.Time})
			}
			open[e.Proc] = e.Time
		case e.Action == "resume":
			if s, ok := open[e.Proc]; ok {
				if e.Time > s {
					spans = append(spans, Span{Proc: e.Proc, Start: s, End: e.Time})
				}
				delete(open, e.Proc)
			}
		case strings.HasPrefix(e.Action, "block"):
			delete(open, e.Proc)
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Proc < spans[j].Proc
	})
	return spans
}

// WriteTimeline renders a coarse text Gantt chart: one row per process,
// width columns across [0, horizon] (horizon 0 = max recorded time).
func (c *Collector) WriteTimeline(w io.Writer, width int, horizon float64) error {
	if width <= 0 {
		width = 80
	}
	spans := c.Spans()
	if horizon <= 0 {
		for _, s := range spans {
			if s.End > horizon {
				horizon = s.End
			}
		}
	}
	if horizon <= 0 {
		// No busy span ends after 0; fall back to the raw events so a
		// trace that only blocks (or sits at t=0) still renders rows.
		for _, e := range c.events {
			if e.Time > horizon {
				horizon = e.Time
			}
		}
	}
	if horizon <= 0 {
		if len(c.events) == 0 {
			_, err := fmt.Fprintln(w, "(no activity)")
			return err
		}
		// Events exist but everything happened at t=0: use a nominal
		// horizon so the chart still shows each process row.
		horizon = 1
	}
	byProc := map[string][]Span{}
	var procs []string
	for _, s := range spans {
		if _, ok := byProc[s.Proc]; !ok {
			procs = append(procs, s.Proc)
		}
		byProc[s.Proc] = append(byProc[s.Proc], s)
	}
	sort.Strings(procs)
	nameW := 0
	for _, p := range procs {
		if len(p) > nameW {
			nameW = len(p)
		}
	}
	for _, p := range procs {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range byProc[p] {
			lo := int(s.Start / horizon * float64(width))
			hi := int(s.End / horizon * float64(width))
			if lo >= width {
				lo = width - 1
			}
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi && i < width; i++ {
				row[i] = '#'
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameW, p, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  0%*s%.4gs\n", nameW, "", width-1, "", horizon)
	return err
}
