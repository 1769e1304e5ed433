package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"codesign/internal/machine"
)

// --- Hybrid matrix multiplication (Equation 1 application) ---

func TestMMHybridBeatsBaselines(t *testing.T) {
	hy, err := RunMM(MMConfig{N: 6144, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	po, err := RunMM(MMConfig{N: 6144, BF: -1, Mode: ProcessorOnly})
	if err != nil {
		t.Fatal(err)
	}
	fo, err := RunMM(MMConfig{N: 6144, BF: -1, Mode: FPGAOnly})
	if err != nil {
		t.Fatal(err)
	}
	if hy.Seconds >= po.Seconds || hy.Seconds >= fo.Seconds {
		t.Fatalf("hybrid %.2fs must beat cpu %.2fs and fpga %.2fs", hy.Seconds, po.Seconds, fo.Seconds)
	}
	// No network traffic: operands are node-resident (Eq. 1 case).
	if hy.NetworkBytes != 0 {
		t.Fatalf("mm should not touch the network, moved %d bytes", hy.NetworkBytes)
	}
}

func TestMMPartitionBalances(t *testing.T) {
	// N chosen so the Eq. (1) solution is not clamped by SRAM capacity
	// (at larger N the FPGA's result buffer fills and bf is capped,
	// deliberately unbalancing toward the processor).
	r, err := RunMM(MMConfig{N: 3072, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if r.BF%r.K != 0 || r.BF <= 0 || r.BF >= r.N {
		t.Fatalf("bf = %d implausible", r.BF)
	}
	// At the solved split, per-stripe CPU and FPGA times balance.
	tf, tp, tmem := r.Model.StripeTimes(r.BF)
	if math.Abs(tf-(tp+tmem))/tf > 0.05 {
		t.Fatalf("Eq.1 imbalance: tf=%g vs tp+tmem=%g", tf, tp+tmem)
	}
}

func TestMMSRAMClampUnderloadsFPGA(t *testing.T) {
	// At large N the SRAM cap binds: the FPGA side must then be the
	// faster side (it got fewer rows than balance wants).
	r, err := RunMM(MMConfig{N: 6144, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	maxBf := int(float64(r.Model.SRAMBytes) / r.Model.Bw / float64(r.Model.Width()))
	maxBf -= maxBf % r.K
	if r.BF != maxBf {
		t.Fatalf("bf = %d, want SRAM cap %d", r.BF, maxBf)
	}
	tf, tp, tmem := r.Model.StripeTimes(r.BF)
	if tf >= tp+tmem {
		t.Fatalf("clamped FPGA should be underloaded: tf=%g vs %g", tf, tp+tmem)
	}
}

func TestMMFunctionalMatchesReference(t *testing.T) {
	for _, mode := range []Mode{Hybrid, ProcessorOnly, FPGAOnly} {
		r, err := RunMM(MMConfig{N: 96, PEs: 4, BF: -1, Mode: mode, Functional: true, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !r.Checked || r.MaxResidual != 0 {
			t.Fatalf("%v: residual %g (checked=%v)", mode, r.MaxResidual, r.Checked)
		}
	}
}

func TestMMPredictionClose(t *testing.T) {
	// With no communication the stripes pipeline almost perfectly, so
	// the simulation should achieve nearly all of the prediction.
	r, err := RunMM(MMConfig{N: 6144, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.GFLOPS / r.Prediction.GFLOPS
	if ratio < 0.9 || ratio > 1.02 {
		t.Fatalf("measured/predicted = %.3f, want ~1", ratio)
	}
}

func TestMMValidation(t *testing.T) {
	if _, err := RunMM(MMConfig{N: 100}); err == nil { // not multiple of k=8/p=6
		t.Fatal("bad n accepted")
	}
	if _, err := RunMM(MMConfig{N: 0}); err == nil {
		t.Fatal("zero n accepted")
	}
	if _, err := RunMM(MMConfig{N: 96, PEs: 4, BF: 200}); err == nil {
		t.Fatal("bf > n accepted")
	}
}

// --- Hybrid Cholesky (ScaLAPACK-trio extension) ---

func TestCholeskyHybridBeatsProcessorOnly(t *testing.T) {
	hy, err := RunCholesky(CholConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	po, err := RunCholesky(CholConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: ProcessorOnly})
	if err != nil {
		t.Fatal(err)
	}
	if hy.Seconds >= po.Seconds {
		t.Fatalf("hybrid %.1fs not faster than processor-only %.1fs", hy.Seconds, po.Seconds)
	}
	// Cholesky has half LU's flops; throughput should be in the same
	// regime as the LU hybrid (the same opMM-style engine drives it).
	if hy.GFLOPS < 10 || hy.GFLOPS > 25 {
		t.Fatalf("cholesky hybrid = %.2f GFLOPS, implausible", hy.GFLOPS)
	}
}

func TestCholeskyUsesSamePartition(t *testing.T) {
	r, err := RunCholesky(CholConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	// The trailing-update stripes are the same computation as LU's
	// opMM, so Equation (4) gives the same split.
	if r.BF != 1280 || r.BP != 1720 {
		t.Fatalf("partition bf=%d bp=%d, want 1280/1720", r.BF, r.BP)
	}
}

func TestCholeskyFunctionalMatchesReference(t *testing.T) {
	for _, mode := range []Mode{Hybrid, ProcessorOnly, FPGAOnly} {
		r, err := RunCholesky(CholConfig{N: 80, B: 20, PEs: 4, BF: -1, L: 2, Mode: mode, Functional: true, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !r.Checked {
			t.Fatalf("%v: not checked", mode)
		}
		if r.MaxResidual > 1e-9 {
			t.Fatalf("%v: residual %g", mode, r.MaxResidual)
		}
	}
}

func TestCholeskyFunctionalLarger(t *testing.T) {
	r, err := RunCholesky(CholConfig{N: 200, B: 40, PEs: 4, BF: -1, L: -1, Mode: Hybrid, Functional: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxResidual > 1e-8 {
		t.Fatalf("residual %g", r.MaxResidual)
	}
}

func TestCholeskySingleBlock(t *testing.T) {
	r, err := RunCholesky(CholConfig{N: 40, B: 40, PEs: 4, BF: -1, L: -1, Mode: Hybrid, Functional: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxResidual > 1e-10 {
		t.Fatalf("residual %g", r.MaxResidual)
	}
}

func TestCholeskyValidation(t *testing.T) {
	if _, err := RunCholesky(CholConfig{N: 100, B: 30}); err == nil {
		t.Fatal("non-dividing block accepted")
	}
	if _, err := RunCholesky(CholConfig{N: 90, B: 18, PEs: 4}); err == nil {
		t.Fatal("block not multiple of k accepted")
	}
}

func TestCholeskyFasterThanLU(t *testing.T) {
	// Same machine, same n: Cholesky does half the work and should
	// finish in well under LU's time.
	ch, err := RunCholesky(CholConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	lu, err := RunLU(LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Seconds >= lu.Seconds {
		t.Fatalf("cholesky %.1fs not faster than LU %.1fs", ch.Seconds, lu.Seconds)
	}
}

// --- Hybrid QR (second ScaLAPACK extension) ---

func TestQRHybridBeatsProcessorOnly(t *testing.T) {
	hy, err := RunQR(QRConfig{N: 30000, B: 3000, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	po, err := RunQR(QRConfig{N: 30000, B: 3000, BF: -1, Mode: ProcessorOnly})
	if err != nil {
		t.Fatal(err)
	}
	if hy.Seconds >= po.Seconds {
		t.Fatalf("hybrid %.1fs not faster than processor-only %.1fs", hy.Seconds, po.Seconds)
	}
	if hy.GFLOPS < 8 || hy.GFLOPS > 30 {
		t.Fatalf("qr hybrid = %.2f GFLOPS, implausible", hy.GFLOPS)
	}
}

func TestQRUsesEq4Partition(t *testing.T) {
	r, err := RunQR(QRConfig{N: 30000, B: 3000, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if r.BF != 1280 {
		t.Fatalf("bf = %d, want the Eq.4 solution 1280", r.BF)
	}
}

func TestQRFunctionalBitExact(t *testing.T) {
	for _, mode := range []Mode{Hybrid, ProcessorOnly, FPGAOnly} {
		r, err := RunQR(QRConfig{N: 120, B: 20, PEs: 4, BF: -1, Mode: mode, Functional: true, Seed: 31})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !r.Checked {
			t.Fatalf("%v: not checked", mode)
		}
		// Identical reflector operations in identical per-column order:
		// the distributed factored form matches the reference exactly.
		if r.MaxResidual != 0 {
			t.Fatalf("%v: residual %g", mode, r.MaxResidual)
		}
	}
}

func TestQRSingleBlockColumn(t *testing.T) {
	r, err := RunQR(QRConfig{N: 40, B: 40, PEs: 4, BF: -1, Mode: Hybrid, Functional: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxResidual != 0 {
		t.Fatalf("residual %g", r.MaxResidual)
	}
	if r.Coordinations != 0 {
		t.Fatalf("single panel should launch no FPGA jobs, got %d", r.Coordinations)
	}
}

func TestQRValidation(t *testing.T) {
	if _, err := RunQR(QRConfig{N: 100, B: 30}); err == nil {
		t.Fatal("non-dividing block accepted")
	}
	if _, err := RunQR(QRConfig{N: 90, B: 18, PEs: 4}); err == nil {
		t.Fatal("block not multiple of k accepted")
	}
	if _, err := RunQR(QRConfig{N: 120, B: 24, PEs: 4, BF: 30}); err == nil {
		t.Fatal("bf > b accepted")
	}
}

func TestQRPredictionSane(t *testing.T) {
	r, err := RunQR(QRConfig{N: 30000, B: 3000, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.GFLOPS / r.Prediction.GFLOPS
	if ratio < 0.55 || ratio > 1.05 {
		t.Fatalf("measured/predicted = %.2f out of range", ratio)
	}
}

func TestQRDeterministic(t *testing.T) {
	r1, err := RunQR(QRConfig{N: 30000, B: 3000, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunQR(QRConfig{N: 30000, B: 3000, BF: -1, Mode: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seconds != r2.Seconds {
		t.Fatal("QR simulation not deterministic")
	}
}

// --- Hybrid conjugate gradient (related-work extension, after [9]) ---

func TestCGDenseHybridSolves(t *testing.T) {
	r, err := RunCG(CGConfig{N: 512, RowsFPGA: -1, Mode: Hybrid, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("did not converge: %+v", r)
	}
	// The hybrid iterates are bit-identical to the sequential CG.
	if r.MaxResidual != 0 {
		t.Fatalf("iterates deviate from reference by %g", r.MaxResidual)
	}
	if r.RowsFPGA <= 0 || r.RowsFPGA >= r.N {
		t.Fatalf("rows split %d/%d implausible", r.RowsFPGA, r.RowsCPU)
	}
}

func TestCGHybridBeatsBaselines(t *testing.T) {
	hy, err := RunCG(CGConfig{N: 768, RowsFPGA: -1, Mode: Hybrid, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	po, err := RunCG(CGConfig{N: 768, RowsFPGA: -1, Mode: ProcessorOnly, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if hy.Seconds >= po.Seconds {
		t.Fatalf("hybrid %.4fs not faster than processor-only %.4fs", hy.Seconds, po.Seconds)
	}
	// All variants take identical iteration counts (same arithmetic).
	if hy.Iterations != po.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", hy.Iterations, po.Iterations)
	}
}

func TestCGSparse(t *testing.T) {
	r, err := RunCG(CGConfig{N: 800, Density: 0.02, RowsFPGA: -1, Mode: Hybrid, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged || r.MaxResidual != 0 {
		t.Fatalf("sparse CG: %+v", r)
	}
}

func TestCGSRAMClamp(t *testing.T) {
	// A dense matrix too large for SRAM: the FPGA share gets clamped.
	mc := machineXD1Small()
	r, err := RunCG(CGConfig{Machine: mc, N: 1024, RowsFPGA: -1, Mode: Hybrid, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	capWords := int(mc.SRAMBankBytes) * mc.SRAMBanks / 8
	if r.RowsFPGA*r.N > capWords {
		t.Fatalf("FPGA share %d rows exceeds SRAM capacity", r.RowsFPGA)
	}
}

func TestCGCoordinationPerIteration(t *testing.T) {
	// One load handshake pair plus two handshakes per iteration.
	r, err := RunCG(CGConfig{N: 256, RowsFPGA: -1, Mode: Hybrid, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 + 2*r.Iterations)
	if r.Coordinations != want {
		t.Fatalf("coordinations = %d, want %d", r.Coordinations, want)
	}
	if r.LoadSeconds <= 0 {
		t.Fatal("SRAM load must take time")
	}
}

// TestCGValidation also requires cg to make spmv's input checks before
// anything is built: a density outside [0,1] fails with spmv's text,
// and an operator whose dense n×n matrix is over the input cap (cg
// builds one at every density) fails with the cap error, having
// allocated almost nothing.
func TestCGValidation(t *testing.T) {
	if _, err := RunCG(CGConfig{N: 0}); err == nil {
		t.Fatal("zero n accepted")
	}
	if _, err := RunCG(CGConfig{N: 64, RowsFPGA: 100}); err == nil {
		t.Fatal("rows > n accepted")
	}
	for _, d := range []float64{math.NaN(), -3, 7} {
		_, spmvErr := RunSpMV(SpMVConfig{N: 64, Density: d})
		_, err := RunCG(CGConfig{N: 64, Density: d})
		if want := fmt.Sprintf("core: density %g out of [0,1]", d); err == nil || err.Error() != want || spmvErr.Error() != want {
			t.Errorf("density %g: cg err = %v, spmv err = %v, want %q", d, err, spmvErr, want)
		}
	}
	for _, d := range []float64{0, 1e-3} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RunCG(CGConfig{N: 200000, Density: d})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errMVInputTooLarge) {
			t.Errorf("n=200000 density %g: err %v, want the input cap error", d, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("rejecting n=200000 density %g allocated %d bytes", d, alloc)
		}
	}
}

// machineXD1Small is an XD1 with tiny SRAM banks for clamp tests.
func machineXD1Small() machine.Config {
	mc := machine.XD1()
	mc.SRAMBankBytes = 1 << 20
	return mc
}
