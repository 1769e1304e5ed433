package core

import (
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/sim"
)

// CholConfig configures a distributed block Cholesky factorization —
// the extension application the paper's conclusion points at ("extend
// the proposed model to a broader range of applications") and the third
// routine of the ScaLAPACK set it builds on [10]. It runs on the LU
// co-design's pipeline (lu.go) with a symmetric update: the panel node
// factors the diagonal block on its processor (opPOTRF) and solves the
// panel (one opTRSM per block); the trailing
// update is split row-wise between processor and FPGA on the other p-1
// nodes, with only the lower triangle's blocks computed (opSYRK, at
// half an opMM, on the diagonal, opGEMM below it). LU's ablations and
// fault injection are not offered.
type CholConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the matrix size, B the block size (multiple of PEs and p-1).
	N, B int
	// PEs is the matmul design size; 0 means the largest that fits.
	PEs int
	// BF is the FPGA row share per stripe; -1 solves Equation (4).
	BF int
	// L is the panel pipeline depth; -1 solves Equation (5).
	L int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional factors a real SPD matrix and checks L·Lᵀ = A.
	Functional bool
	// Seed drives functional input generation.
	Seed int64
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span summary (a trace.Summary folded from
	// every span as the run emits it, none of them kept) —
	// utilization, bytes moved, and the Tp/Tf/Tmem/Tcomm overlap
	// decomposition — to the result.
	Telemetry bool
}

// CholResult extends Result with the Cholesky-specific configuration.
type CholResult struct {
	Result
	// BF and BP are the stripe row split, L the panel pipeline depth,
	// K the PE count.
	BF, BP, L, K int
	// Model is the cost-model instance behind the partition.
	Model model.LUParams
	// Prediction is the Section 4.5 closed-form forecast at the split.
	Prediction model.Prediction
}

// RunCholesky simulates the distributed factorization on the LU
// pipeline with a symmetric update, without LU's ablations or fault
// injection.
func RunCholesky(cfg CholConfig) (*CholResult, error) {
	r, a, ref, err := cholFactorization.run(LUConfig{Machine: cfg.Machine, N: cfg.N, B: cfg.B, PEs: cfg.PEs,
		BF: cfg.BF, L: cfg.L, Mode: cfg.Mode, Functional: cfg.Functional, Seed: cfg.Seed,
		Observer: cfg.Observer, Telemetry: cfg.Telemetry})
	if err != nil {
		return nil, err
	}
	res := &CholResult{Result: r.Result, BF: r.BF, BP: r.BP, L: r.L, K: r.K, Model: r.Model, Prediction: r.Prediction}
	if a != nil {
		res.Checked = true
		res.MaxResidual = matrix.ExtractLower(a).MaxDiff(matrix.ExtractLower(ref))
	}
	return res, nil
}

// predictChol is the Section 4.5 predictor for the Cholesky design:
// Cholesky does half of LU's trailing work per iteration pair, so it is
// the LU prediction with its times halved, at n³/3 useful flops.
func predictChol(lp model.LUParams, n, bf int) model.Prediction {
	p, nn := lp.PredictLU(n, bf), float64(n)
	p.Ttp, p.Ttf, p.Seconds, p.Flops = 0.5*p.Ttp, 0.5*p.Ttf, 0.5*p.Seconds, nn*nn*nn/3
	p.GFLOPS = p.Flops / p.Seconds / 1e9
	return p
}
