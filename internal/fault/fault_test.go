package fault

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"seed": 1, "evnets": []}`)); err == nil {
		t.Fatal("typo field accepted")
	}
	s, err := Parse([]byte(`{"seed": 7, "events": [{"kind": "cpu-slow", "node": 1, "start": 0.5, "duration": 1, "factor": 0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Events) != 1 || s.Events[0].Kind != CPUSlow {
		t.Fatalf("bad parse: %+v", s)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Events: []Event{{Kind: CPUSlow, Node: 9, Start: 0, Factor: 0.5}}},
		{Events: []Event{{Kind: CPUSlow, Node: 0, Start: -1, Factor: 0.5}}},
		{Events: []Event{{Kind: CPUSlow, Node: 0, Start: 0, Factor: 0}}},
		{Events: []Event{{Kind: ThrottleBd, Node: 0, Start: 0, Factor: 1.5}}},
		{Events: []Event{{Kind: FPGAStall, Node: 0, Start: 0}}},
		{Events: []Event{{Kind: "melted", Node: 0, Start: 0}}},
		{Random: []Random{{Kind: CPUSlow, Count: 2, Node: -1}}},
		{Threshold: -1},
		{Window: -0.5},
	}
	for i, s := range bad {
		s := s
		if _, err := New(&s, 4); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if _, err := New(nil, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(nil, 4); err != nil {
		t.Errorf("nil spec rejected: %v", err)
	}
}

func TestRandomExpansionDeterministic(t *testing.T) {
	spec := &Spec{
		Seed: 42,
		Random: []Random{{
			Kind: ThrottleBn, Count: 5, Node: -1, Horizon: 10,
			MeanDuration: 2, MinFactor: 0.2, MaxFactor: 0.8,
		}},
	}
	a, err := New(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("same seed diverged:\n%v\n%v", a.Events(), b.Events())
	}
	if len(a.Events()) != 5 {
		t.Fatalf("expected 5 events, got %d", len(a.Events()))
	}
	for _, e := range a.Events() {
		if e.Start < 0 || e.Start >= 10 || e.Factor < 0.2 || e.Factor > 0.8 {
			t.Errorf("event outside configured bounds: %+v", e)
		}
		if e.Duration < 1 || e.Duration > 3 {
			t.Errorf("duration outside [0.5,1.5]×mean: %+v", e)
		}
	}
	other, err := New(&Spec{Seed: 43, Random: spec.Random}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events(), other.Events()) {
		t.Fatal("different seeds produced identical events")
	}
}

func TestDilateIdentityOutsideWindows(t *testing.T) {
	in, err := New(&Spec{Events: []Event{
		{Kind: CPUSlow, Node: 0, Start: 10, Duration: 5, Factor: 0.5},
	}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ start, dt float64 }{
		{0, 1}, {0, 10}, {15, 3}, {9.999, 0.001}, {100, 7},
	}
	for _, c := range cases {
		if got := in.Dilate(ClassCPU, 0, c.start, c.dt); got != c.dt {
			t.Errorf("Dilate(%g,%g) = %g, want bit-identical %g", c.start, c.dt, got, c.dt)
		}
	}
	// Other node and other class untouched even inside the window.
	if got := in.Dilate(ClassCPU, 1, 11, 2); got != 2 {
		t.Errorf("wrong node dilated: %g", got)
	}
	if got := in.Dilate(ClassDRAM, 0, 11, 2); got != 2 {
		t.Errorf("wrong class dilated: %g", got)
	}
}

func TestDilatePiecewise(t *testing.T) {
	in, err := New(&Spec{Events: []Event{
		{Kind: CPUSlow, Node: 0, Start: 10, Duration: 5, Factor: 0.5},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Entirely inside the half-speed window: takes twice as long.
	if got := in.Dilate(ClassCPU, 0, 11, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("inside window: got %g, want 2", got)
	}
	// Straddling the start: 1s nominal work = 1s healthy + 2×1s slowed... but
	// only 2s of work requested: 1s before the window (1s of work) then 1s of
	// work at half speed = 2s wall. Total 3s.
	if got := in.Dilate(ClassCPU, 0, 9, 2); math.Abs(got-3) > 1e-12 {
		t.Errorf("straddling start: got %g, want 3", got)
	}
	// Straddling the end: start at 14 with 2s of work: 1s in-window delivers
	// 0.5s of work, the remaining 1.5s runs healthy. Total 2.5s.
	if got := in.Dilate(ClassCPU, 0, 14, 2); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("straddling end: got %g, want 2.5", got)
	}
}

func TestDilateStallWindow(t *testing.T) {
	in, err := New(&Spec{Events: []Event{
		{Kind: FPGAStall, Node: 0, Start: 5, Duration: 2},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Work starting mid-stall waits for the window to end.
	if got := in.Dilate(ClassFPGA, 0, 6, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("mid-stall start: got %g, want 2 (1s blocked + 1s work)", got)
	}
	// Work straddling the whole stall pays the full window.
	if got := in.Dilate(ClassFPGA, 0, 4, 3); math.Abs(got-5) > 1e-12 {
		t.Errorf("straddling stall: got %g, want 5", got)
	}
}

func TestDilateOverlappingWindowsMultiply(t *testing.T) {
	in, err := New(&Spec{Events: []Event{
		{Kind: ThrottleBd, Node: 0, Start: 0, Duration: 10, Factor: 0.5},
		{Kind: ThrottleBd, Node: 0, Start: 0, Duration: 10, Factor: 0.5},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Dilate(ClassDRAM, 0, 0, 1); math.Abs(got-4) > 1e-12 {
		t.Errorf("two half throttles: got %g, want 4 (quarter speed)", got)
	}
}

func TestOpenEndedWindow(t *testing.T) {
	in, err := New(&Spec{Events: []Event{
		{Kind: ThrottleBn, Node: 0, Start: 3, Factor: 0.25}, // until end of run
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Dilate(ClassNet, 0, 100, 1); math.Abs(got-4) > 1e-12 {
		t.Errorf("open-ended throttle: got %g, want 4", got)
	}
	if got := in.Dilate(ClassNet, 0, 0, 3); got != 3 {
		t.Errorf("before open-ended window: got %g, want 3", got)
	}
}

func TestLiveness(t *testing.T) {
	in, err := New(&Spec{Events: []Event{
		{Kind: NodeKill, Node: 2, Start: 1.5},
	}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !in.HasDeaths() {
		t.Fatal("HasDeaths false")
	}
	if !in.Alive(2, 1.0) || in.Alive(2, 1.5) || in.Alive(2, 2.0) {
		t.Fatal("kill time not respected")
	}
	if !in.Alive(0, 100) {
		t.Fatal("healthy node reported dead")
	}
	if got := in.DeadBy(2.0); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("DeadBy = %v, want [2]", got)
	}
	if got := in.DeadBy(1.0); got != nil {
		t.Fatalf("DeadBy before kill = %v, want none", got)
	}
}

func TestTakeObserved(t *testing.T) {
	in, err := New(&Spec{Events: []Event{
		{Kind: CPUSlow, Node: 1, Start: 0, Duration: 100, Factor: 0.5},
	}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy node 0 charges at nominal, slowed node 1 at half speed.
	in.Dilate(ClassCPU, 0, 0, 1)
	in.Dilate(ClassCPU, 1, 0, 1) // dilates to 2
	f := in.TakeObserved()
	if math.Abs(f.CPU-0.5) > 1e-12 {
		t.Errorf("observed CPU factor %g, want 0.5 (min across nodes)", f.CPU)
	}
	if f.DRAM != 0 || f.Net != 0 || f.FPGA != 0 {
		t.Errorf("unobserved classes should report 0: %+v", f)
	}
	// Accumulators reset, but each (node, class)'s last-known ratio
	// carries forward: a silent window is not evidence of recovery.
	f = in.TakeObserved()
	if math.Abs(f.CPU-0.5) > 1e-12 {
		t.Errorf("silent window dropped the carried CPU ratio: %+v", f)
	}
	if f.DRAM != 0 || f.Net != 0 || f.FPGA != 0 {
		t.Errorf("never-observed classes should stay 0: %+v", f)
	}
	// A fresh nominal charge on the slowed node updates the carried
	// ratio — recovery is observed, not assumed.
	in.Dilate(ClassCPU, 1, 200, 1) // past the fault window: no dilation
	if f := in.TakeObserved(); math.Abs(f.CPU-1) > 1e-12 {
		t.Errorf("recovered node still reads slow: %+v", f)
	}
}

func TestActiveFactorsAndOracle(t *testing.T) {
	spec := &Spec{Events: []Event{
		{Kind: ThrottleBd, Node: 3, Start: 2, Duration: 4, Factor: 0.3},
	}}
	in, err := New(spec.WithOracle(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Oracle() || in.Window() != 0 {
		t.Fatal("oracle tuning not applied")
	}
	if f := in.ActiveFactors(3); math.Abs(f.DRAM-0.3) > 1e-12 {
		t.Errorf("active DRAM factor %g, want 0.3", f.DRAM)
	}
	if f := in.ActiveFactors(7); f != Nominal() {
		t.Errorf("after window: %+v, want nominal", f)
	}
	if spec.Oracle {
		t.Fatal("WithOracle mutated the original spec")
	}
	if in2, _ := New(spec, 6); in2.Oracle() {
		t.Fatal("non-oracle spec built an oracle injector")
	}
}

func TestDefaultsApplied(t *testing.T) {
	in, err := New(&Spec{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in.Threshold() != DefaultThreshold || in.Window() != DefaultWindow {
		t.Fatalf("defaults not applied: threshold=%g window=%g", in.Threshold(), in.Window())
	}
}

// oomSpec asks for 9e18 generated events; expansion used to append
// until the process ran out of memory.
const oomSpec = `{"random":[{"kind":"cpu-slow","count":9000000000000000000,"node":-1,"horizon":1,"min_factor":0.5,"max_factor":1}]}`

func TestHugeRandomCountRejected(t *testing.T) {
	spec, err := Parse([]byte(oomSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(spec, 6); err == nil || !strings.HasPrefix(err.Error(), "fault: ") {
		t.Fatalf("oversized spec: got %v, want a fault: error", err)
	}
	at := &Spec{Random: []Random{{Kind: NodeKill, Count: MaxEvents, Node: -1, Horizon: 1}}}
	if _, err := New(at, 6); err != nil {
		t.Fatalf("spec of exactly MaxEvents events rejected: %v", err)
	}
	at.Events = []Event{{Kind: NodeKill, Node: 0}}
	if _, err := New(at, 6); err == nil {
		t.Fatal("spec of MaxEvents+1 events accepted")
	}
}

// FuzzParseSpec feeds arbitrary bytes through Parse and New: neither
// may panic, every rejection is a fault: error, and an accepted spec's
// decode -> encode -> decode round trip is stable.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		oomSpec, `{}`, `null`, `[]`, `{"seed": 7, "threshold": 0.1, "window": 2, "oracle": true}`,
		`{"events": [{"kind": "cpu-slow", "node": 2, "start": 0.3, "duration": 0.8, "factor": 0.4}]}`,
		`{"events": [{"kind": "node-kill", "node": 3, "start": 300}, {"kind": "fpga-stall", "node": 0, "start": 1, "duration": 2}]}`,
		`{"random": [{"kind": "throttle-bn", "count": 5, "node": -1, "horizon": 10, "mean_duration": 2, "min_factor": 0.2, "max_factor": 0.8}]}`,
		`{"random": [{"kind": "melted", "count": 1, "horizon": 1}]}`, `{"evnets": []}`, `{"seed": 1e400}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fault: ") {
				t.Fatalf("rejection %q is not a fault error", err)
			}
			return
		}
		for nodes := 1; nodes <= 8; nodes++ {
			if _, err := New(spec, nodes); err != nil && !strings.HasPrefix(err.Error(), "fault: ") {
				t.Fatalf("nodes=%d: rejection %q is not a fault error", nodes, err)
			}
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("encoding an accepted spec: %v", err)
		}
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-reading %s: %v", enc, err)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip unstable:\n%s\n%s", enc, enc2)
		}
	})
}
