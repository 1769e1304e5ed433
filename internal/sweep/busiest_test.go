package sweep

import (
	"testing"

	"codesign/internal/analysis"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// TestBusiestPhaseTieBreak pins the dominant-phase choice behind a
// MethodSim point's Binding: unlabelled spans never dominate, and on
// equal TotalBusy the phase that starts first wins, whichever the
// stream emitted first.
func TestBusiestPhaseTieBreak(t *testing.T) {
	var d trace.Digest
	for _, sp := range []sim.SpanEvent{
		{Category: sim.CatCompute, Device: sim.DeviceFPGA, Phase: "second", Start: 4, End: 7},
		{Category: sim.CatNetwork, Phase: "first", Start: 1, End: 4},
		{Category: sim.CatCompute, Device: sim.DeviceCPU, Phase: "", Start: 0, End: 9},
		{Category: sim.CatSync, Phase: "third", Start: 2, End: 30},
	} {
		d.Span(sp)
	}
	phases := analysis.DigestPhases(&d, nil)
	b := busiest(phases)
	if b == nil || b.Phase != "first" {
		t.Fatalf("busiest = %+v, want phase \"first\"", b)
	}
	if got := b.Binding.String(); got != "Bn" {
		t.Errorf("first binds %s, want Bn", got)
	}
	if b := busiest(phases[:1]); b != nil {
		t.Errorf("only the unlabelled phase: busiest = %+v, want nil", b)
	}
}
