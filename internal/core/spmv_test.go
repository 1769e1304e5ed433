package core

import (
	"math"
	"reflect"
	"testing"

	"codesign/internal/fault"
	"codesign/internal/model"
	"codesign/internal/trace"
)

func TestRunSpMVSparseIsBdBound(t *testing.T) {
	r, err := RunSpMV(SpMVConfig{N: 1024, Density: 0.05, RowsFPGA: -1, Mode: Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checked || r.MaxResidual != 0 {
		t.Fatalf("split apply must be bit-identical to the reference: checked=%v residual=%g",
			r.Checked, r.MaxResidual)
	}
	if r.RowsFPGA != r.N || r.RowsCPU != 0 {
		t.Fatalf("sparse solve should stream every row through the FPGA, got %d/%d", r.RowsFPGA, r.RowsCPU)
	}
	if bind, _ := r.Model.StripeBinding(r.RowsFPGA); bind != model.BindBd {
		t.Fatalf("sparse streamed apply binds %s, want %s", bind, model.BindBd)
	}
	if r.Resident || r.LoadSeconds != 0 {
		t.Fatalf("a single apply must stream, not load: resident=%v load=%g", r.Resident, r.LoadSeconds)
	}
	if ratio := r.Seconds / r.Prediction.Seconds; ratio < 0.9 || ratio > 1.2 {
		t.Fatalf("measured %g s vs predicted %g s (ratio %g)", r.Seconds, r.Prediction.Seconds, ratio)
	}
}

func TestRunSpMVDenseSolvesToProcessor(t *testing.T) {
	r, err := RunSpMV(SpMVConfig{N: 512, Density: 0, RowsFPGA: -1, Mode: Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsFPGA != 0 || r.RowsCPU != r.N {
		t.Fatalf("dense solve should keep every row on the processor, got %d/%d", r.RowsFPGA, r.RowsCPU)
	}
	if bind, _ := r.Model.StripeBinding(0); bind != model.BindOpFp {
		t.Fatalf("dense all-CPU split binds %s, want %s", bind, model.BindOpFp)
	}
	if r.MaxResidual != 0 {
		t.Fatalf("dense split apply differs from reference by %g", r.MaxResidual)
	}
	if r.NNZ != r.N*r.N || r.Words != r.N*r.N {
		t.Fatalf("dense operator footprint: nnz=%d words=%d", r.NNZ, r.Words)
	}
}

func TestRunSpMVDeterministic(t *testing.T) {
	recA, recB := trace.NewRecorder(), trace.NewRecorder()
	cfg := SpMVConfig{N: 512, Density: 0.05, RowsFPGA: -1, Mode: Hybrid, Seed: 3}
	cfg.Observer = recA
	a, err := RunSpMV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = recB
	b, err := RunSpMV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.GFLOPS != b.GFLOPS || a.MaxResidual != b.MaxResidual {
		t.Fatalf("identical configs diverge: %+v vs %+v", a.Result, b.Result)
	}
	if !reflect.DeepEqual(recA.Spans(), recB.Spans()) {
		t.Fatal("identical configs produce different span streams")
	}
}

func TestRunSpMMResidentSparseShare(t *testing.T) {
	r, err := RunSpMM(SpMVConfig{N: 2048, Density: 0.02, RHS: 32, RowsFPGA: -1, Mode: Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Resident {
		t.Fatalf("a %d-word sparse operator should fit SRAM and go resident", r.Words)
	}
	if r.Applies != 32 {
		t.Fatalf("applies = %d, want 32", r.Applies)
	}
	if r.LoadSeconds <= 0 {
		t.Fatal("resident share must pay a one-time SRAM load")
	}
	if r.RowsFPGA <= 0 || r.RowsFPGA >= r.N {
		t.Fatalf("resident solve should land interior, got %d/%d", r.RowsFPGA, r.N)
	}
	if r.MaxResidual != 0 {
		t.Fatalf("power chain diverged from reference by %g", r.MaxResidual)
	}
}

func TestRunSpMMDenseStaysStreamed(t *testing.T) {
	r, err := RunSpMM(SpMVConfig{N: 2048, Density: 0, RHS: 4, RowsFPGA: -1, Mode: Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Resident {
		t.Fatalf("a %d-word dense operator cannot fit SRAM", r.Words)
	}
	if r.LoadSeconds != 0 {
		t.Fatalf("streamed arrangement paid a load: %g", r.LoadSeconds)
	}
}

func TestRunSpMVRejectsBadConfigs(t *testing.T) {
	if _, err := RunSpMV(SpMVConfig{N: 0}); err == nil {
		t.Error("n=0 accepted")
	}
	for _, d := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := RunSpMV(SpMVConfig{N: 64, Density: d}); err == nil {
			t.Errorf("density %g accepted", d)
		}
	}
	if _, err := RunSpMV(SpMVConfig{N: 64, RowsFPGA: 65, Mode: Hybrid}); err == nil {
		t.Error("rowsFPGA > n accepted")
	}
	kill := mustInjector(t, &fault.Spec{
		Events: []fault.Event{{Kind: fault.NodeKill, Node: 1, Start: 0}},
	}, 6)
	if _, err := RunSpMV(SpMVConfig{N: 64, Density: 0.1, RowsFPGA: -1, Faults: kill}); err == nil {
		t.Error("node-kill injector accepted on a single-node workload")
	}
}

// TestSpMVThrottleBdDominates pins the asymmetry the cost model
// predicts: a streamed sparse apply is DRAM-paced end to end, so a Bd
// throttle dilates it almost proportionally, while the dense MM stripe
// keeps most of its time in compute and barely moves under the same
// fault.
func TestSpMVThrottleBdDominates(t *testing.T) {
	throttle := func() *fault.Injector {
		return mustInjector(t, &fault.Spec{
			Events: []fault.Event{{Kind: fault.ThrottleBd, Node: 0, Start: 0, Factor: 0.25}},
		}, 6)
	}
	spmvCfg := SpMVConfig{N: 1024, Density: 0.05, RowsFPGA: -1, Mode: Hybrid, Seed: 1}
	spmvBase, err := RunSpMV(spmvCfg)
	if err != nil {
		t.Fatal(err)
	}
	spmvCfg.Faults = throttle()
	spmvFaulted, err := RunSpMV(spmvCfg)
	if err != nil {
		t.Fatal(err)
	}
	spmvDilation := spmvFaulted.Seconds / spmvBase.Seconds
	if spmvFaulted.MaxResidual != 0 {
		t.Fatalf("throttling must not change arithmetic: residual %g", spmvFaulted.MaxResidual)
	}

	mmBase, err := RunMM(MMConfig{N: 1536, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	mmFaulted, err := RunMM(MMConfig{N: 1536, BF: -1, Mode: Hybrid, Faults: throttle()})
	if err != nil {
		t.Fatal(err)
	}
	mmDilation := mmFaulted.Seconds / mmBase.Seconds

	if spmvDilation < 2 {
		t.Fatalf("Bd throttle barely moved the streamed spmv: dilation %g", spmvDilation)
	}
	if spmvDilation < 2*mmDilation {
		t.Fatalf("Bd throttle should dominate spmv (%gx) far more than dense mm (%gx)",
			spmvDilation, mmDilation)
	}
}

// TestRunCGSparseLockstep exercises the shared SpMV partition solver
// inside RunCG: the run must stay in lockstep with matrix.CG (RunCG
// errors otherwise) and verify bit-exact iterates.
func TestRunCGSparseLockstep(t *testing.T) {
	r, err := RunCG(CGConfig{N: 512, Density: 0.05, RowsFPGA: -1, Mode: Hybrid, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("sparse CG did not converge: %+v", r)
	}
	if r.MaxResidual != 0 {
		t.Fatalf("sim iterates differ from reference by %g", r.MaxResidual)
	}
}
