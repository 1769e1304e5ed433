package core

import (
	"fmt"
	"math"
	"math/rand"

	"codesign/internal/cpu"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/sim"
)

// CGConfig configures a hybrid conjugate-gradient solve — the related
// work the paper contrasts itself with (Morris et al. [9], an
// FPGA-augmented CG on an SRC reconfigurable computer) rebuilt with
// this repository's co-design model. The operator apply (matrix-vector
// product) is split row-wise between processor and FPGA per Equation
// (1); the matrix's FPGA share is loaded into on-board SRAM once and
// streamed from there every iteration, while the O(n) vector kernels
// stay on the processor. Single node, as in [9].
type CGConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis
	// (only node 0 is used).
	Machine machine.Config
	// N is the system size.
	N int
	// Density selects the operator: 0 means dense SPD; otherwise a
	// sparse SPD matrix with the given off-diagonal density.
	Density float64
	// Tol is the relative residual tolerance (default 1e-10).
	Tol float64
	// MaxIter caps the iteration count (default n).
	MaxIter int
	// PEs is the MV design size; 0 means the largest that fits.
	PEs int
	// RowsFPGA is the FPGA's row share; -1 solves the Equation (1)
	// balance (with the SRAM capacity clamp).
	RowsFPGA int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Seed drives input generation. CG is always functional: the
	// iteration count is a property of the data.
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

// CGRunResult reports a hybrid CG solve.
type CGRunResult struct {
	Result
	// RowsFPGA and RowsCPU are the row split; K is the MV design's MAC
	// lane count.
	RowsFPGA, RowsCPU, K int
	// Iterations is the number of CG iterations run.
	Iterations int
	// Converged reports whether the residual reached the tolerance.
	Converged bool
	// Residual is the final relative residual.
	Residual float64
	// LoadSeconds is the one-time cost of staging the FPGA's matrix
	// share into SRAM over the DRAM path.
	LoadSeconds float64
}

// RunCG builds the machine, solves the row split, runs the solve on the
// simulated node and verifies the iterates against the sequential
// reference.
func RunCG(cfg CGConfig) (*CGRunResult, error) {
	// Generating the operator takes O(n²) rng draws at every density
	// (and stores n×n at density 0), so it is capped as spmv's notional
	// dense input is.
	m, err := cgApp.start(Spec{Machine: cfg.Machine, N: cfg.N, PEs: cfg.PEs, Mode: cfg.Mode,
		Observer: cfg.Observer, Telemetry: cfg.Telemetry}, func() error {
		return checkMVInput("cg", cfg.N, cfg.Density, mvNotionalBytes(cfg.N, 0))
	})
	if err != nil {
		return nil, err
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-10
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = cfg.N
	}
	sys, mc, k := m.sys, m.q.Machine, m.q.K
	node := sys.Nodes[0]
	accel := node.Accel
	proc := node.Proc

	// Build the operator and the reference solve.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var op matrix.MulVec
	var rowWords func(lo, hi int) int // matrix words in rows [lo,hi)
	if cfg.Density > 0 {
		sp := matrix.RandomSparseSPD(cfg.N, cfg.Density, rng)
		op = sp
		// CSR streams value+column index per non-zero (~1.5 words,
		// rounded up so the SRAM clamp and DMA byte counts never
		// under-charge odd nonzero counts).
		rowWords = func(lo, hi int) int { return model.CSRStreamWords(sp.RangeNNZ(lo, hi)) }
	} else {
		a := matrix.RandomSPD(cfg.N, rng)
		op = matrix.DenseOp{A: a}
		rowWords = func(lo, hi int) int { return (hi - lo) * cfg.N }
	}
	b := make([]float64, cfg.N)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	ref := matrix.CG(op, b, cfg.Tol, cfg.MaxIter)

	// Row split per Equation (1), via the shared MV cost model in its
	// resident arrangement: the FPGA's matrix share is loaded into SRAM
	// once over Bd, so the per-apply balance has no Tmem term and the
	// FPGA word rate is the slower of the MAC array and the SRAM port.
	totalWords := rowWords(0, cfg.N)
	mvRate := proc.Rate(cpu.DGEMV)
	if cfg.Density > 0 {
		mvRate = proc.Rate(cpu.SpMV)
	}
	mvp := model.SpMVParams{
		N: cfg.N, K: k, Words: totalWords,
		Ff:        accel.Placed.FreqHz,
		MVRate:    mvRate,
		VecTime:   proc.Time(cpu.VectorOp, 10*float64(cfg.N)),
		Bd:        machine.EffectiveBd(mc.RawFPGADRAMBandwidth, accel.Placed.FreqHz),
		Bs:        mc.SRAMBandwidth,
		Bw:        machine.WordBytes,
		SRAMBytes: sys.Nodes[0].SRAM.TotalBytes(),
		Resident:  true,
		Applies:   cfg.MaxIter,
	}
	fpgaPerWord := mvp.FPGAPerWord()
	cpuPerWord := mvp.CPUPerWord()

	rf, err := SolveShare(cfg.Mode, "rowsFPGA", cfg.RowsFPGA, cfg.N, mvp.SolvePartition)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// SRAM capacity clamp on the resident share.
	capWords := int(float64(sys.Nodes[0].SRAM.TotalBytes()) / machine.WordBytes)
	if rf > 0 && rowWords(0, rf) > capWords {
		for rf > 0 && rowWords(0, rf) > capWords {
			rf--
		}
	}

	fpgaWords := rowWords(0, rf)
	fpgaApply := float64(fpgaWords) * fpgaPerWord
	cpuApply := float64(rowWords(rf, cfg.N)) * cpuPerWord

	// The solve, mirroring matrix.CG step for step with the operator
	// apply split across the two resources.
	x := make([]float64, cfg.N)
	r := make([]float64, cfg.N)
	copy(r, b)
	pv := make([]float64, cfg.N)
	copy(pv, r)
	q := make([]float64, cfg.N)
	bnorm := matrix.Norm2(b)
	rr := matrix.Dot(r, r)

	res := &CGRunResult{RowsFPGA: rf, RowsCPU: cfg.N - rf, K: k}
	var loadDone float64
	sys.Eng.Go("cg.cpu", func(pr *sim.Proc) {
		// One-time SRAM load of the FPGA's matrix share over Bd.
		if rf > 0 {
			pr.SetPhase("load")
			accel.Run(pr, "cg.load", func(fp *sim.Proc) {
				fp.SetPhase("load")
				accel.Stream(fp, fpgaWords*machine.WordBytes)
			})
			pr.SetPhase("")
		}
		loadDone = pr.Now()
		if bnorm == 0 {
			res.Converged = true
			return
		}
		for it := 0; it < cfg.MaxIter; it++ {
			// q = A·p, split by rows.
			var done *sim.Signal
			if rf > 0 {
				done = accel.Job(fmt.Sprintf("cg.mv.%d", it), "apply", machine.NoFill, fpgaApply*accel.Placed.FreqHz)
			}
			if rf < cfg.N {
				pr.SetPhase("apply")
				node.ChargeCPU(pr, sim.CatCompute, 0, cpuApply)
				pr.SetPhase("")
			}
			applyOpSplit(op, pv, q, rf)
			if done != nil {
				accel.AwaitDone(pr, done)
			}
			// Vector kernels on the processor.
			node.ComputeCPU(pr, cpu.VectorOp, 10*float64(cfg.N))
			pq := matrix.Dot(pv, q)
			if pq <= 0 {
				// Breakdown on a non-positive curvature; matrix.CG stops
				// at the same point, keeping the runs in lockstep.
				break
			}
			alpha := rr / pq
			matrix.Axpy(alpha, pv, x)
			matrix.Axpy(-alpha, q, r)
			rrNew := matrix.Dot(r, r)
			res.Iterations = it + 1
			if math.Sqrt(rrNew) <= cfg.Tol*bnorm {
				res.Converged = true
				rr = rrNew
				break
			}
			beta := rrNew / rr
			for i := range pv {
				pv[i] = r[i] + beta*pv[i]
			}
			rr = rrNew
		}
		res.Residual = math.Sqrt(rr)
	})

	// The reference fixes the iteration count; a run that diverges from
	// it is rejected below.
	applyFlops := 2 * float64(totalWords)
	if cfg.Density > 0 {
		applyFlops = 2 * float64(op.(*matrix.CSR).NNZ())
	}
	res.Result = Result{App: "cg", Mode: cfg.Mode, N: cfg.N}
	if err := m.finish("cg", float64(ref.Iterations)*(applyFlops+10*float64(cfg.N)), &res.Result); err != nil {
		return nil, err
	}

	// Verify against the sequential reference: identical operations in
	// identical order, so the iterates are bit-identical.
	var maxDiff float64
	for i := range x {
		if d := math.Abs(x[i] - ref.X[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if res.Iterations != ref.Iterations || res.Converged != ref.Converged {
		return nil, fmt.Errorf("core: cg diverged from reference: %d/%v vs %d/%v",
			res.Iterations, res.Converged, ref.Iterations, ref.Converged)
	}
	res.MaxResidual, res.Checked = maxDiff, true
	res.LoadSeconds = loadDone
	return res, nil
}

// applyOpSplit computes q = A·p with rows [0,rf) notionally on the FPGA
// and the rest on the processor — the arithmetic is identical, so one
// pass through the row-partitioned kernels suffices.
func applyOpSplit(op matrix.MulVec, p, q []float64, rf int) {
	op.ApplyRange(p, q, 0, rf)
	op.ApplyRange(p, q, rf, len(q))
}
