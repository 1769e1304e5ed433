package analysis_test

import (
	"fmt"
	"slices"
	"testing"

	"codesign/internal/analysis"
	"codesign/internal/core"
	"codesign/internal/machine"
	"codesign/internal/model"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// TestDigestPhasesMatchReference pins ClassifyPhases and DigestPhases
// to the map-based classifier they replaced, PhaseStats for
// PhaseStats with ==. The streams are lu, fw, mm and spmv (dense and
// sparse) at their small sizes in all three modes on two presets, each
// also in reversed emission order and with zero- and negative-length
// spans interleaved, some carrying bytes.
func TestDigestPhasesMatchReference(t *testing.T) {
	var d trace.Digest
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
				spans := rec.Spans()
				rev := slices.Clone(spans)
				slices.Reverse(rev)
				var odd []sim.SpanEvent
				for i, sp := range spans {
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
				for variant, ss := range map[string][]sim.SpanEvent{"": spans, "/reversed": rev, "/zero-length": odd} {
					want := referenceClassifyPhases(ss, res.Expected())
					if len(want) == 0 {
						t.Fatalf("%s%s: no phases", name, variant)
					}
					if got := analysis.ClassifyPhases(ss, res.Expected()); !slices.Equal(got, want) {
						t.Errorf("%s%s: ClassifyPhases\n got %+v\nwant %+v", name, variant, got, want)
					}
					d.Reset()
					for _, sp := range ss {
						d.Span(sp)
					}
					if got := analysis.DigestPhases(&d, res.Expected()); !slices.Equal(got, want) {
						t.Errorf("%s%s: DigestPhases\n got %+v\nwant %+v", name, variant, got, want)
					}
				}
			}
		}
	}
}

// TestDigestPhasesOrder checks the start-time order DigestPhases
// returns, with the label breaking ties, independent of which phase
// the stream emitted first.
func TestDigestPhasesOrder(t *testing.T) {
	var d trace.Digest
	for _, sp := range []sim.SpanEvent{
		{Category: sim.CatCompute, Device: sim.DeviceFPGA, Phase: "late", Start: 5, End: 7},
		{Category: sim.CatCompute, Device: sim.DeviceCPU, Phase: "tie-b", Start: 1, End: 3},
		{Category: sim.CatCompute, Device: sim.DeviceCPU, Phase: "tie-a", Start: 1, End: 2},
		{Category: sim.CatDMA, Phase: "early", Bytes: 16, Start: 0, End: 0},
	} {
		d.Span(sp)
	}
	var got []string
	for _, ps := range analysis.DigestPhases(&d, map[string]model.Binding{"late": model.BindOfFf}) {
		got = append(got, ps.Phase)
		if ps.Phase == "late" && (ps.Expected != model.BindOfFf || !ps.Agree) {
			t.Errorf("late: expected %v agree %v", ps.Expected, ps.Agree)
		}
	}
	if want := []string{"early", "tie-a", "tie-b", "late"}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}
