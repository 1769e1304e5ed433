package core

import (
	"reflect"
	"testing"

	"codesign/internal/fault"
	"codesign/internal/trace"
)

func mustInjector(t *testing.T, spec *fault.Spec, nodes int) *fault.Injector {
	t.Helper()
	inj, err := fault.New(spec, nodes)
	if err != nil {
		t.Fatalf("fault.New: %v", err)
	}
	return inj
}

// An installed injector with no configured faults must leave the run
// byte-identical to one without the fault layer: same final time, same
// span stream. This pins the zero-cost-when-unused contract the
// BENCH_baseline gate relies on.
func TestLUEmptyInjectorByteIdentical(t *testing.T) {
	recA := trace.NewRecorder()
	base, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid, Observer: recA})
	if err != nil {
		t.Fatal(err)
	}
	recB := trace.NewRecorder()
	inj := mustInjector(t, &fault.Spec{}, 6)
	faulted, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid, Observer: recB, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if base.Seconds != faulted.Seconds {
		t.Fatalf("empty injector changed the run: %v != %v", faulted.Seconds, base.Seconds)
	}
	if len(faulted.Repartitions) != 0 || len(faulted.DeadNodes) != 0 {
		t.Fatalf("empty injector reported faults: %+v %v", faulted.Repartitions, faulted.DeadNodes)
	}
	if !reflect.DeepEqual(recA.Spans(), recB.Spans()) {
		t.Fatal("empty injector changed the span stream")
	}
}

func TestFWEmptyInjectorByteIdentical(t *testing.T) {
	recA := trace.NewRecorder()
	base, err := RunFW(FWConfig{N: 9216, B: 256, L1: -1, Mode: Hybrid, Observer: recA})
	if err != nil {
		t.Fatal(err)
	}
	recB := trace.NewRecorder()
	inj := mustInjector(t, &fault.Spec{}, 6)
	faulted, err := RunFW(FWConfig{N: 9216, B: 256, L1: -1, Mode: Hybrid, Observer: recB, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if base.Seconds != faulted.Seconds {
		t.Fatalf("empty injector changed the run: %v != %v", faulted.Seconds, base.Seconds)
	}
	if !reflect.DeepEqual(recA.Spans(), recB.Spans()) {
		t.Fatal("empty injector changed the span stream")
	}
}

// A sustained Bd throttle must be detected from observed span telemetry
// and answered with an Equation (4)/(5) re-solve, and the whole flow
// must be deterministic: the same spec and seed reproduce the same
// makespan and repartition history bit-exactly.
func TestLUThrottleBdRepartitionsDeterministically(t *testing.T) {
	base, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	spec := &fault.Spec{
		Window: 50,
		Events: []fault.Event{
			{Kind: fault.ThrottleBd, Node: 1, Start: 100, Duration: 500, Factor: 0.25},
		},
	}
	run := func() *LUResult {
		r, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid,
			Faults: mustInjector(t, spec, 6)})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := run()
	if a.Seconds <= base.Seconds {
		t.Fatalf("throttled run finished in %v, no slower than the nominal %v", a.Seconds, base.Seconds)
	}
	if len(a.Repartitions) == 0 {
		t.Fatal("sustained Bd throttle triggered no repartition")
	}
	first := a.Repartitions[0]
	if first.Reason != "divergence" {
		t.Fatalf("reason %q, want divergence", first.Reason)
	}
	if first.Factors.Bd >= 1 {
		t.Fatalf("repartition saw nominal Bd: %+v", first.Factors)
	}
	if first.Live != 6 {
		t.Fatalf("live %d, want 6", first.Live)
	}
	b := run()
	if a.Seconds != b.Seconds {
		t.Fatalf("same spec, different makespans: %v != %v", a.Seconds, b.Seconds)
	}
	if !reflect.DeepEqual(a.Repartitions, b.Repartitions) {
		t.Fatalf("same spec, different repartition histories:\n%+v\n%+v", a.Repartitions, b.Repartitions)
	}
}

// A mid-run node kill must complete through degraded-mode
// repartitioning: the dead node leaves at an iteration boundary, the
// schedule shrinks to the survivors, and the result reports the loss.
func TestLUNodeKillCompletes(t *testing.T) {
	base, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	spec := &fault.Spec{
		Events: []fault.Event{{Kind: fault.NodeKill, Node: 3, Start: 300}},
	}
	r, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid,
		Faults: mustInjector(t, spec, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds <= base.Seconds {
		t.Fatalf("five-node run finished in %v, no slower than the six-node %v", r.Seconds, base.Seconds)
	}
	if !reflect.DeepEqual(r.DeadNodes, []int{3}) {
		t.Fatalf("dead nodes %v, want [3]", r.DeadNodes)
	}
	var death *Repartition
	for i := range r.Repartitions {
		if r.Repartitions[i].Reason == "node-death" {
			death = &r.Repartitions[i]
			break
		}
	}
	if death == nil {
		t.Fatalf("no node-death repartition recorded: %+v", r.Repartitions)
	}
	if death.Live != 5 {
		t.Fatalf("node-death repartition reports %d live nodes, want 5", death.Live)
	}
	if death.Time < 300 {
		t.Fatalf("repartition at t=%v precedes the kill at t=300", death.Time)
	}
}

// Losing all but one node cannot be repartitioned around (LU needs a
// panel node plus at least one compute node) — the run must fail with
// an error, not hang or panic.
func TestLUTooFewSurvivorsErrors(t *testing.T) {
	spec := &fault.Spec{}
	for n := 1; n < 6; n++ {
		spec.Events = append(spec.Events, fault.Event{Kind: fault.NodeKill, Node: n, Start: 250})
	}
	_, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid,
		Faults: mustInjector(t, spec, 6)})
	if err == nil {
		t.Fatal("run with one survivor succeeded")
	}
}

// The oracle detector knows the configured ground truth and reacts at
// the first iteration boundary inside the fault — never later than the
// observed-telemetry detector it is the reference for.
func TestLUOracleReactsNoLaterThanObserved(t *testing.T) {
	spec := &fault.Spec{
		Window: 50,
		Events: []fault.Event{
			{Kind: fault.CPUSlow, Node: 2, Start: 150, Duration: 600, Factor: 0.4},
		},
	}
	observed, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid,
		Faults: mustInjector(t, spec, 6)})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid,
		Faults: mustInjector(t, spec.WithOracle(), 6)})
	if err != nil {
		t.Fatal(err)
	}
	if len(observed.Repartitions) == 0 || len(oracle.Repartitions) == 0 {
		t.Fatalf("missing repartitions: observed %d, oracle %d",
			len(observed.Repartitions), len(oracle.Repartitions))
	}
	if oracle.Repartitions[0].Time > observed.Repartitions[0].Time {
		t.Fatalf("oracle repartitioned at %v, after the observed detector at %v",
			oracle.Repartitions[0].Time, observed.Repartitions[0].Time)
	}
}

// FW's whole-task split must shift toward the FPGA when the processor
// becomes a straggler.
func TestFWCPUSlowRepartitions(t *testing.T) {
	base, err := RunFW(FWConfig{N: 18432, B: 256, L1: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	spec := &fault.Spec{
		Events: []fault.Event{
			{Kind: fault.CPUSlow, Node: 0, Start: 100, Duration: 800, Factor: 0.3},
		},
	}
	r, err := RunFW(FWConfig{N: 18432, B: 256, L1: -1, Mode: Hybrid,
		Faults: mustInjector(t, spec, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Repartitions) == 0 {
		t.Fatal("sustained CPU straggler triggered no repartition")
	}
	first := r.Repartitions[0]
	if first.L1 > base.L1 {
		t.Fatalf("slower CPU raised the processor share: l1 %d -> %d", base.L1, first.L1)
	}
	if first.Factors.CPU >= 1 {
		t.Fatalf("repartition saw nominal CPU: %+v", first.Factors)
	}
}

// FW, MM and SpMV cannot shed a node — FW's contiguous block-column
// distribution and MM's result columns have no surviving owner for a
// dead node's share, and SpMV runs on one node — so kill specs must be
// rejected up front, each with its reason.
func TestFWNodeKillRejected(t *testing.T) {
	kill := func() *fault.Injector {
		spec := &fault.Spec{Events: []fault.Event{{Kind: fault.NodeKill, Node: 1, Start: 10}}}
		return mustInjector(t, spec, 6)
	}
	for _, c := range []struct {
		app  string
		run  func() error
		want string
	}{
		{"fw", func() error {
			_, err := RunFW(FWConfig{N: 9216, B: 256, L1: -1, Mode: Hybrid, Faults: kill()})
			return err
		}, "core: fw cannot survive node kills: the contiguous block-column distribution has no surviving owner for a dead node's columns"},
		{"mm", func() error {
			_, err := RunMM(MMConfig{N: 96, PEs: 4, BF: -1, Mode: Hybrid, Faults: kill()})
			return err
		}, "core: mm has no surviving owner for a dead node's result columns"},
		{"spmv", func() error {
			_, err := RunSpMV(SpMVConfig{N: 64, Density: 0.1, RowsFPGA: -1, Faults: kill()})
			return err
		}, "core: spmv runs on a single node and cannot survive node kills"},
	} {
		if err := c.run(); err == nil || err.Error() != c.want {
			t.Errorf("%s with a node kill: err = %v, want %q", c.app, err, c.want)
		}
	}
}

// Functional checking carries real matrices; degraded mode reshapes the
// schedule underneath them, so the combination is rejected.
func TestFunctionalWithFaultsRejected(t *testing.T) {
	const want = "core: functional checking cannot run under fault injection"
	none := func() *fault.Injector { return mustInjector(t, &fault.Spec{}, 6) }
	for _, c := range []struct {
		app string
		run func() error
	}{
		{"lu", func() error {
			_, err := RunLU(LUConfig{N: 300, B: 60, PEs: 4, BF: -1, L: -1, Mode: Hybrid,
				Functional: true, Seed: 1, Faults: none()})
			return err
		}},
		{"fw", func() error {
			_, err := RunFW(FWConfig{N: 96, B: 8, PEs: 4, L1: -1, Mode: Hybrid,
				Functional: true, Seed: 1, Faults: none()})
			return err
		}},
		{"mm", func() error {
			_, err := RunMM(MMConfig{N: 96, PEs: 4, BF: -1, Mode: Hybrid,
				Functional: true, Seed: 1, Faults: none()})
			return err
		}},
	} {
		if err := c.run(); err == nil || err.Error() != want {
			t.Errorf("%s: Functional with Faults: err = %v, want %q", c.app, err, want)
		}
	}
}
