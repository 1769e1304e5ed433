package trace_test

import (
	"math/rand"
	"slices"
	"testing"

	"codesign/internal/core"
	"codesign/internal/fault"
	"codesign/internal/trace"
)

// recording buffers a run's spans and counts its raw events: what the
// reference summary is built from.
type recording struct {
	trace.Recorder
	events int
}

func (r *recording) Event(float64, string, string) { r.events++ }

// sameSummary compares every Summary field with ==, element by element
// for the per-process and per-resource tallies.
func sameSummary(a, b *trace.Summary) bool {
	return a.Makespan == b.Makespan && a.Spans == b.Spans && a.Events == b.Events &&
		a.DRAMBytes == b.DRAMBytes && a.NetworkBytes == b.NetworkBytes &&
		slices.Equal(a.Procs, b.Procs) && slices.Equal(a.Resources, b.Resources) &&
		a.Overlap == b.Overlap
}

// telemetryRun runs spec with Telemetry on beside a recording, and
// checks the run's summary against the reference fold of the recorded
// spans. It returns the recording and the run's makespan.
func telemetryRun(t *testing.T, name string, a core.App, spec core.Spec) (*recording, float64) {
	t.Helper()
	rec := &recording{}
	spec.Observer, spec.Telemetry = rec, true
	r, err := a.Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := referenceSummarize(rec.SpansView(), rec.events, r.Seconds)
	if want.Spans == 0 || want.Events == 0 || len(want.Procs) == 0 || len(want.Resources) == 0 {
		t.Fatalf("%s: degenerate reference %+v", name, want)
	}
	if got := r.Telemetry; !sameSummary(got, want) {
		t.Errorf("%s: summary\n got %+v\nwant %+v", name, got, want)
	}
	return rec, r.Seconds
}

// TestSummarizerMatchesReference pins the streaming Summarizer behind
// Result.Telemetry to the buffered fold it replaced, field for field:
// every registered app's small hybrid run, a sparse spmv run whose FPGA
// share is live, a faulted lu run, and a shuffled span stream.
func TestSummarizerMatchesReference(t *testing.T) {
	for _, a := range core.Apps() {
		telemetryRun(t, a.Name, a, a.Small())
	}

	spmv, err := core.LookupApp("spmv")
	if err != nil {
		t.Fatal(err)
	}
	sparse := spmv.Small()
	sparse.Density, sparse.RHS = 0.05, 4
	telemetryRun(t, "spmv-sparse", spmv, sparse)

	lu, err := core.LookupApp("lu")
	if err != nil {
		t.Fatal(err)
	}
	spec := lu.Small()
	rec, end := telemetryRun(t, "lu", lu, spec)
	inj, err := fault.New(&fault.Spec{Events: []fault.Event{
		{Kind: fault.ThrottleBd, Node: 1, Start: 0.2 * end, Duration: 0.5 * end, Factor: 0.25},
		{Kind: fault.CPUSlow, Node: 2, Start: 0.1 * end, Factor: 0.5},
	}}, spec.Machine.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	faulted := spec
	faulted.Faults = inj
	if _, slow := telemetryRun(t, "lu-faulted", lu, faulted); slow <= end {
		t.Fatalf("faults did not slow lu: %v <= %v", slow, end)
	}

	// A shuffled stream takes the overlap's sort fallback, and every
	// tally sums in the shuffled order.
	spans := rec.Spans()
	rand.New(rand.NewSource(1)).Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	var sum trace.Summarizer
	for range 5 {
		sum.Event(0, "", "")
	}
	for _, sp := range spans {
		sum.Span(sp)
	}
	want := referenceSummarize(spans, 5, end)
	if got := sum.Summary(end); !sameSummary(got, want) {
		t.Errorf("shuffled: summary\n got %+v\nwant %+v", got, want)
	}
}
