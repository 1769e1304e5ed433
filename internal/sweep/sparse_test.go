package sweep

import (
	"context"
	"strings"
	"testing"
)

// TestDensityRegimeFlipModel pins the tentpole acceptance behavior: on
// the density axis the solved Equation (1) partition flips from all-CPU
// (dense, Op*Fp-bound) to all-FPGA (sparse, Bd-bound), under the
// closed-form model.
func TestDensityRegimeFlipModel(t *testing.T) {
	g := Grid{
		Apps:    []string{"spmv"},
		N:       []int{1024},
		Density: []float64{0, 0.05},
		Method:  MethodModel,
	}
	res, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dense, sparse := res.Outcomes[0], res.Outcomes[1]
	if !dense.OK || !sparse.OK {
		t.Fatalf("infeasible points: %s / %s", dense.Err, sparse.Err)
	}
	if dense.BF != 0 || dense.Binding != "Op*Fp" {
		t.Fatalf("dense point: bf=%d binding=%s, want 0/Op*Fp", dense.BF, dense.Binding)
	}
	if sparse.BF != 1024 || sparse.Binding != "Bd" {
		t.Fatalf("sparse point: bf=%d binding=%s, want 1024/Bd", sparse.BF, sparse.Binding)
	}
	if sparse.GFLOPS >= dense.GFLOPS {
		t.Fatalf("sparse apply (%g GFLOPS) cannot outrun dense DGEMV (%g GFLOPS)",
			sparse.GFLOPS, dense.GFLOPS)
	}
}

// TestDensityRegimeFlipSim repeats the flip under the full simulation
// on the CI smoke grid (spmv, n 512, density 0/0.02/0.1 x pes 4/7): the
// measured span classification must attribute every dense point to
// the processor (Op*Fp, all-CPU split) and every sparse point to the
// DRAM path (Bd, all-FPGA split).
func TestDensityRegimeFlipSim(t *testing.T) {
	g := Grid{
		Apps:    []string{"spmv"},
		N:       []int{512},
		Density: []float64{0, 0.02, 0.1},
		PEs:     []int{4, 7},
		Method:  MethodSim,
	}
	res, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 6 {
		t.Fatalf("%d points, want 6", len(res.Outcomes))
	}
	for i, o := range res.Outcomes {
		p := res.Points[i]
		if !o.OK {
			t.Fatalf("point %+v infeasible: %s", p, o.Err)
		}
		wantBF, wantBinding := p.N, "Bd"
		if p.Density == 0 {
			wantBF, wantBinding = 0, "Op*Fp"
		}
		if o.BF != wantBF || o.Binding != wantBinding {
			t.Errorf("density %g pes %d: bf=%d binding=%s, want %d/%s",
				p.Density, p.PEs, o.BF, o.Binding, wantBF, wantBinding)
		}
		if o.Seconds <= 0 || o.GFLOPS <= 0 {
			t.Errorf("density %g pes %d: not measured: %+v", p.Density, p.PEs, o)
		}
	}
}

func TestDensityAxisValidation(t *testing.T) {
	bad := Grid{Apps: []string{"spmv"}, Density: []float64{-0.1}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "density") {
		t.Fatalf("negative density accepted: %v", err)
	}
	bad = Grid{Apps: []string{"spmv"}, Density: []float64{1.5}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "density") {
		t.Fatalf("density > 1 accepted: %v", err)
	}
	g := Grid{Apps: []string{"lu", "spmv"}, Density: []float64{0, 0.02, 0.1}, N: []int{512}}
	if got := g.NumPoints(); got != 6 {
		t.Fatalf("NumPoints = %d, want 6 (2 apps x 3 densities)", got)
	}
}

// The density axis is part of the deterministic enumeration: identical
// grids must produce identical outcomes whatever the worker count.
func TestDensitySweepDeterministicAcrossWorkers(t *testing.T) {
	g := Grid{
		Apps:    []string{"spmv"},
		N:       []int{256},
		Density: []float64{0, 0.05, 0.2},
		Modes:   []string{"hybrid", "fpga-only"},
		Method:  MethodSim,
	}
	base, err := Run(context.Background(), g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(context.Background(), g, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Outcomes {
		if base.Outcomes[i] != wide.Outcomes[i] {
			t.Fatalf("point %d differs across worker counts:\n%+v\n%+v",
				i, base.Outcomes[i], wide.Outcomes[i])
		}
	}
}
