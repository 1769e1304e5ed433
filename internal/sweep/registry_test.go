package sweep

import (
	"slices"
	"strings"
	"testing"

	"codesign/internal/core"
	"codesign/internal/machine"
)

// TestAppsFollowTheRegistry requires the sweepable apps to be exactly
// the registry rows with a model half, in registry order, and an app
// without one to be rejected by name.
func TestAppsFollowTheRegistry(t *testing.T) {
	var want []string
	for _, a := range core.Apps() {
		if a.Price != nil {
			want = append(want, a.Name)
		}
	}
	if got := Apps(); !slices.Equal(got, want) {
		t.Fatalf("Apps() = %v, want the registry's model halves %v", got, want)
	}
	if !slices.Equal(want, []string{"lu", "fw", "mm", "spmv", "chol", "qr"}) {
		t.Errorf("model halves %v, want lu, fw, mm, spmv, chol and qr", want)
	}
	if err := (Grid{Apps: []string{"cg"}}).Validate(); err == nil || !strings.Contains(err.Error(), `"cg"`) {
		t.Errorf("cg grid: Validate = %v, want a rejection naming cg", err)
	}
	out := NewEvaluator(0).Evaluate(Point{App: "cg", Machine: "xd1", Mode: "hybrid", BF: -1, L: -1}, MethodModel)
	if out.OK || !strings.Contains(out.Err, "lu, fw, mm, spmv, chol, qr") {
		t.Errorf("cg point: %+v, want an error naming the sweepable apps", out)
	}
}

// TestFWPEsRuleMatchesRun pins the one PE rule: rasc's largest FW array
// (24 PEs) does not divide b=256, so core.RunFW and the sweep both
// shrink it to 16.
func TestFWPEsRuleMatchesRun(t *testing.T) {
	mc, err := machine.Preset("rasc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunFW(core.FWConfig{Machine: mc, N: 1024, B: 256, L1: -1})
	if err != nil {
		t.Fatal(err)
	}
	pt := Point{App: "fw", Machine: "rasc", Mode: "hybrid", N: 1024, B: 256, BF: -1, L: -1}
	out := NewEvaluator(0).Evaluate(pt, MethodModel)
	if res.K != 16 || out.K != res.K {
		t.Errorf("RunFW K = %d, sweep K = %d (%s), want both 16", res.K, out.K, out.Err)
	}
}

// TestSweepPricesCholAndQR checks that chol and qr points price
// through their registry rows under both methods, and that the sim
// method measures the split the model resolved.
func TestSweepPricesCholAndQR(t *testing.T) {
	for _, app := range []string{"chol", "qr"} {
		pt := Point{App: app, Machine: "xd1", Mode: "hybrid", N: 120, B: 40, BF: -1, L: -1}
		ev := NewEvaluator(0)
		model, sim := ev.Evaluate(pt, MethodModel), ev.Evaluate(pt, MethodSim)
		if !model.OK || !sim.OK {
			t.Fatalf("%s: model %+v, sim %+v", app, model, sim)
		}
		if model.BF != sim.BF || model.L != sim.L {
			t.Errorf("%s: model split bf=%d l=%d, sim bf=%d l=%d", app, model.BF, model.L, sim.BF, sim.L)
		}
	}
}
