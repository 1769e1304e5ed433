package trace_test

import (
	"fmt"
	"slices"
	"testing"

	"codesign/internal/core"
	"codesign/internal/machine"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// stream is one recorded span stream and the makespan of its run.
type stream struct {
	name     string
	spans    []sim.SpanEvent
	makespan float64
}

// appStreams records the span streams of lu, fw, mm and spmv (dense
// and sparse) at their small sizes, in all three modes, on two machine
// presets.
func appStreams(t *testing.T) []stream {
	t.Helper()
	var out []stream
	for _, preset := range []string{"xd1", "xt3"} {
		cfg, err := machine.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			app     string
			density float64
		}{{"lu", 0}, {"fw", 0}, {"mm", 0}, {"spmv", 0}, {"spmv", 0.05}} {
			a, err := core.LookupApp(run.app)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []core.Mode{core.Hybrid, core.ProcessorOnly, core.FPGAOnly} {
				spec := a.Small()
				spec.Machine, spec.Mode, spec.Density = cfg, mode, run.density
				rec := trace.NewRecorder()
				spec.Observer = rec
				res, err := a.Run(spec)
				name := fmt.Sprintf("%s/%s(%g)/%s", preset, run.app, run.density, mode)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out = append(out, stream{name, rec.Spans(), res.Seconds})
			}
		}
	}
	return out
}

// variants adds to each stream its reversed emission order (both edge
// lists then need the sort fallback) and a copy with zero- and
// negative-length spans interleaved, some carrying bytes.
func variants(streams []stream) []stream {
	var out []stream
	for _, s := range streams {
		rev := slices.Clone(s.spans)
		slices.Reverse(rev)
		var odd []sim.SpanEvent
		for i, sp := range s.spans {
			odd = append(odd, sp)
			if i%7 == 0 {
				z := sp
				z.End, z.Bytes = z.Start, int64(i%3)*64
				odd = append(odd, z)
			}
			if i%11 == 0 {
				r := sp
				r.Start, r.End, r.Bytes = sp.End, sp.Start, 8
				odd = append(odd, r)
			}
		}
		out = append(out, s,
			stream{s.name + "/reversed", rev, s.makespan},
			stream{s.name + "/zero-length", odd, s.makespan})
	}
	return out
}

// TestDigestOverlapMatchesReference pins the streaming digest to the
// slice-based overlap sweep it replaced, field for field with ==, both
// through ComputeOverlap and through one digest reused across streams
// as the sweep reuses pooled digests.
func TestDigestOverlapMatchesReference(t *testing.T) {
	var d trace.Digest
	for _, s := range variants(appStreams(t)) {
		want := referenceComputeOverlap(s.spans, s.makespan)
		if want.Makespan <= 0 || want.BusyTp+want.BusyTf <= 0 {
			t.Fatalf("%s: degenerate reference %+v", s.name, want)
		}
		if got := trace.ComputeOverlap(s.spans, s.makespan); got != want {
			t.Errorf("%s: ComputeOverlap\n got %+v\nwant %+v", s.name, got, want)
		}
		d.Reset()
		for _, sp := range s.spans {
			d.Span(sp)
		}
		if got := d.Overlap(s.makespan); got != want {
			t.Errorf("%s: Digest.Overlap\n got %+v\nwant %+v", s.name, got, want)
		}
		if got := d.Overlap(s.makespan); got != want {
			t.Errorf("%s: second Digest.Overlap\n got %+v\nwant %+v", s.name, got, want)
		}
	}
}

// TestDigestHandFolds checks a small stream by hand: zero-length spans
// skip the overlap but a zero-length span with bytes opens its phase.
func TestDigestHandFolds(t *testing.T) {
	var d trace.Digest
	for _, sp := range []sim.SpanEvent{
		{Category: sim.CatCompute, Device: sim.DeviceCPU, Phase: "b", Start: 2, End: 5},
		{Category: sim.CatDMA, Phase: "a", Bytes: 64, Start: 1, End: 1},
		{Category: sim.CatNetwork, Phase: "a", Start: 4, End: 4},
		{Category: sim.CatDMA, Phase: "b", Bytes: 32, Start: 0, End: 3},
	} {
		d.Span(sp)
	}
	o := d.Overlap(6)
	if want := (trace.Overlap{Makespan: 6, BusyTp: 3, BusyTmem: 3, Tp: 3, Tmem: 2, Idle: 1}); o != want {
		t.Fatalf("overlap %+v, want %+v", o, want)
	}
	want := []trace.PhaseTotals{
		{Phase: "b", Busy: [trace.NumSpanClasses]float64{trace.ClassTp: 3, trace.ClassTmem: 3}, Bytes: 32, Start: 0, End: 5},
		{Phase: "a", Bytes: 64, Start: 1, End: 1},
	}
	if got := d.Phases(); !slices.Equal(got, want) {
		t.Fatalf("phases %+v, want %+v", got, want)
	}
}
