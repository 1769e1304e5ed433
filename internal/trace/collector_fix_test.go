package trace

import (
	"encoding/csv"
	"strings"
	"testing"
)

// The CSV exporter must quote, not rewrite, actions containing commas
// (the old implementation replaced "," with ";" and lost data).
func TestWriteCSVQuotesCommas(t *testing.T) {
	var c Collector
	c.Event(0.5, "p0", `block: wait, then some "quoted" detail`)
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v\n%s", err, b.String())
	}
	if got, want := rows[0], []string{"time_s", "process", "action"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("header = %v, want %v", got, want)
	}
	if got := rows[1][2]; got != `block: wait, then some "quoted" detail` {
		t.Fatalf("action round-trip lost data: %q", got)
	}
}

// A span ending exactly at the horizon must still mark the final
// column (the old column math indexed past the row before clamping).
func TestWriteTimelineSpanAtHorizon(t *testing.T) {
	var c Collector
	c.Event(9, "p0", "block: wait 1s")
	c.Event(10, "p0", "resume")
	// A second span entirely at the horizon boundary.
	c.Event(10, "p1", "block: wait 0s")
	c.Event(10, "p1", "resume")
	var b strings.Builder
	if err := c.WriteTimeline(&b, 10, 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	p0 := lines[0]
	if !strings.HasSuffix(p0[:strings.LastIndex(p0, "|")], "#") {
		t.Fatalf("span ending at horizon missing from last column: %q", p0)
	}
}

// Events at t=0 only (horizon stays 0 after fallbacks) must not print
// "(no activity)".
func TestWriteTimelineZeroHorizonWithEvents(t *testing.T) {
	var c Collector
	c.Event(0, "p0", "block: wait 0s")
	c.Event(0, "p0", "resume")
	c.Event(0, "p1", "block: recv inbox")
	var b strings.Builder
	if err := c.WriteTimeline(&b, 20, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "no activity") {
		t.Fatalf("events present but timeline claims no activity:\n%s", b.String())
	}
}

// Timeline with only blocking (no wait spans) falls back to event
// times for the horizon instead of reporting no activity.
func TestWriteTimelineBlocksOnly(t *testing.T) {
	var c Collector
	c.Event(1, "p0", "block: recv inbox")
	c.Event(5, "p0", "resume")
	var b strings.Builder
	if err := c.WriteTimeline(&b, 20, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "no activity") {
		t.Fatalf("blocks-only trace should still render a frame:\n%s", b.String())
	}
}

// A second "block: wait" before the matching "resume" closes the open
// span at the new block time instead of discarding the interval.
func TestSpansNestedWait(t *testing.T) {
	var c Collector
	c.Event(1, "p0", "block: wait 1s")
	c.Event(3, "p0", "block: wait 2s") // malformed: no resume in between
	c.Event(6, "p0", "resume")
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans %v, want 2", len(spans), spans)
	}
	if spans[0].Start != 1 || spans[0].End != 3 {
		t.Fatalf("first span = %+v, want [1,3]", spans[0])
	}
	if spans[1].Start != 3 || spans[1].End != 6 {
		t.Fatalf("second span = %+v, want [3,6]", spans[1])
	}
}

// An unmatched trailing "block: wait" (no final resume) contributes no
// span — its end is unknown.
func TestSpansUnmatchedTrailingWait(t *testing.T) {
	var c Collector
	c.Event(1, "p0", "block: wait 1s")
	c.Event(2, "p0", "resume")
	c.Event(4, "p0", "block: wait 9s")
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans %v, want 1", len(spans), spans)
	}
}
