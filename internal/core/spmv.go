package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"codesign/internal/cache"
	"codesign/internal/cpu"
	"codesign/internal/fault"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/sim"
)

// SpMVConfig configures a hybrid sparse matrix-vector multiply — the
// sparse workload family the ROADMAP names after Soltaniyeh & Martin's
// CPU/FPGA split for sparse linear algebra. The operator's rows are
// partitioned between processor and FPGA per Equation (1); the FPGA
// share streams through the accelerator in CSR form (value + column
// index, ~1.5 words per nonzero), so the DRAM path Bd — not compute —
// is the term that usually binds. Single node, like the CG extension.
type SpMVConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis
	// (only node 0 is used).
	Machine machine.Config
	// N is the operator dimension.
	N int
	// Density selects the operator: 0 means a dense matrix (the DGEMV
	// regime); otherwise a CSR matrix with the given off-diagonal
	// density.
	Density float64
	// RHS is the number of repeated applies for RunSpMM; RunSpMV
	// ignores it. 0 means 32.
	RHS int
	// PEs is the MV design size; 0 means the largest that fits.
	PEs int
	// RowsFPGA is the FPGA's row share; -1 solves the Equation (1)
	// balance.
	RowsFPGA int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Seed drives input generation: the sparse operator and x0 are
	// math/rand draws of it, and the dense operator is
	// matrix.RandomDenseOp keyed by it. SpMV is always functional: every
	// apply is verified against the operator's sequential Apply. Inputs
	// are memoized process-wide by (N, Density, Seed); see loadMVInput.
	Seed int64
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span summary (a trace.Summary folded from
	// every span as the run emits it, none of them kept) —
	// utilization, bytes moved, and the Tp/Tf/Tmem/Tcomm overlap
	// decomposition — to the result.
	Telemetry bool
	// Faults, when non-nil, is installed into every charging path of
	// the machine (see machine.System.InstallFaults). SpMV has no
	// mid-run repartitioning and its arithmetic is timing-independent,
	// so functional verification stays on; node kills are rejected
	// because the workload runs on a single node.
	Faults *fault.Injector
}

// SpMVResult reports a hybrid SpMV/SpMM run.
type SpMVResult struct {
	Result
	// RowsFPGA and RowsCPU are the solved (or forced) row split; K is
	// the MV design's MAC lane count.
	RowsFPGA, RowsCPU, K int
	// NNZ is the operator's stored entry count (n² for dense).
	NNZ int
	// Words is the operator's total stream footprint in 64-bit words.
	Words int
	// Applies is the number of operator applications performed.
	Applies int
	// Resident reports the arrangement: true when the FPGA share was
	// loaded into SRAM once (repeated applies that fit), false when it
	// re-streamed from DRAM on every apply.
	Resident bool
	// Model is the cost-model instance behind the partition.
	Model model.SpMVParams
	// Prediction is the Section 4.5 closed-form forecast at the split.
	Prediction model.Prediction
	// LoadSeconds is the one-time SRAM staging cost (resident only).
	LoadSeconds float64
}

// RunSpMV builds the machine, solves the row split, and simulates one
// streamed operator apply, verifying the result against the sequential
// reference apply.
func RunSpMV(cfg SpMVConfig) (*SpMVResult, error) {
	return runMV(cfg, 1)
}

// RunSpMM repeatedly applies the operator (cfg.RHS right-hand sides,
// default 32) as iterative solvers and block methods do. When the FPGA
// share fits in on-board SRAM it is loaded once and re-used across
// applies (the CG arrangement); otherwise every apply re-streams the
// share from DRAM.
func RunSpMM(cfg SpMVConfig) (*SpMVResult, error) {
	applies := cfg.RHS
	if applies <= 0 {
		applies = 32
	}
	return runMV(cfg, applies)
}

// spmvModel is spmv's model half: the Eq. 1 row split and Section 4.5
// prediction of q.Applies applies (one when 0) of the operator
// matrix.RandomSparse builds, or a dense one, SRAM-resident when
// repeated and the whole operator fits a node's SRAM.
func spmvModel(q Pricing) (model.SpMVParams, Priced, error) {
	n, applies := q.N, max(q.Applies, 1)
	var words, nnz int
	mvRate := q.Proc.Rate(cpu.DGEMV)
	if q.Density > 0 {
		nnz = n * (matrix.SparseRowNNZ(n, q.Density) + 1)
		words = model.CSRStreamWords(nnz)
		mvRate = q.Proc.Rate(cpu.SpMV)
	} else {
		nnz = n * n
		words = n * n
	}
	sp := model.SpMVParams{
		N: n, K: q.K, Words: words,
		Ff:        q.Ff,
		MVRate:    mvRate,
		Bd:        q.Bd,
		Bs:        q.Machine.SRAMBandwidth,
		Bw:        machine.WordBytes,
		SRAMBytes: designSRAM(q.Machine),
		Resident:  applies > 1 && words <= sramWords(q.Machine),
		Applies:   applies,
		Flops:     float64(applies) * 2 * float64(nnz),
	}
	var pr Priced
	if err := sp.Validate(); err != nil {
		return sp, pr, err
	}
	rf, err := SolveShare(q.Mode, "rowsFPGA", q.BF, n, func() (int, int) {
		return pr.solve(q.Memo, PartitionSolve{Kind: "spmv.rf", Params: sp})
	})
	if err != nil {
		return sp, pr, err
	}
	pr.Split = Split{BF: rf, BP: n - rf}
	pr.Prediction = sp.PredictSpMV(rf)
	pr.Binding, pr.Margin = sp.StripeBinding(rf)
	return sp, pr, nil
}

// sramWords is a node's whole SRAM in words.
func sramWords(m machine.Config) int {
	return int(float64(int64(m.SRAMBanks)*m.SRAMBankBytes) / machine.WordBytes)
}

func runMV(cfg SpMVConfig, applies int) (*SpMVResult, error) {
	m, err := spmvApp.start(Spec{Machine: cfg.Machine, N: cfg.N, PEs: cfg.PEs, Mode: cfg.Mode,
		Observer: cfg.Observer, Telemetry: cfg.Telemetry, Faults: cfg.Faults}, func() error {
		return checkMVInput("spmv", cfg.N, cfg.Density, mvNotionalBytes(cfg.N, cfg.Density))
	})
	if err != nil {
		return nil, err
	}
	sys, q := m.sys, m.q
	k := q.K
	node := sys.Nodes[0]
	accel := node.Accel

	// The operator and start vector, shared read-only with every other
	// run of the same (n, density, seed).
	in, err := loadMVInput(cfg.N, cfg.Density, cfg.Seed)
	if err != nil {
		return nil, err
	}
	op := in.op
	if d, ok := op.(matrix.RandomDenseOp); ok && applies > 1 {
		// Repeated applies would regenerate every entry twice per
		// apply; this run's own stored copy, never memoized, keeps them
		// at a stored matrix's speed.
		op = matrix.DenseOp{A: d.Dense()}
	}
	var rowWords func(lo, hi int) int
	var nnz int
	if sp, ok := op.(*matrix.CSR); ok {
		nnz = sp.NNZ()
		rowWords = func(lo, hi int) int { return model.CSRStreamWords(sp.RangeNNZ(lo, hi)) }
	} else {
		nnz = cfg.N * cfg.N
		rowWords = func(lo, hi int) int { return (hi - lo) * cfg.N }
	}

	q.BF, q.Density, q.Applies = cfg.RowsFPGA, cfg.Density, applies
	mvp, priced, err := spmvModel(q)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rf, resident := priced.Split.BF, mvp.Resident
	if resident {
		// SRAM capacity clamp on the resident share, exact per row.
		for rf > 0 && rowWords(0, rf) > sramWords(q.Machine) {
			rf--
		}
	}

	fpgaWords := rowWords(0, rf)
	fpgaPerWord := mvp.FPGAPerWord()
	cpuPerWord := mvp.CPUPerWord()
	streamPerWord := mvp.StreamPerWord()

	// Pipeline granularity for the streamed arrangement: the share
	// moves in row chunks so DMA and MAC-array compute overlap.
	chunkRows := 64 * k
	mv := fpga.MVDesign{K: k}
	phase := "stream"
	if resident {
		phase = "apply"
	}

	// Functional state: a repeated-apply (power) chain, normalized each
	// step, run identically through the split kernels and the reference.
	// The chain overwrites x, so it starts from a copy of the shared x0.
	x := slices.Clone(in.x0)
	y := make([]float64, cfg.N)
	yRef := make([]float64, cfg.N)

	res := &SpMVResult{RowsFPGA: rf, RowsCPU: cfg.N - rf, K: k,
		NNZ: nnz, Words: rowWords(0, cfg.N), Applies: applies, Resident: resident}
	var maxDiff, loadDone float64
	sys.Eng.Go("spmv.cpu", func(pr *sim.Proc) {
		if resident && rf > 0 {
			pr.SetPhase("load")
			accel.Run(pr, "spmv.load", func(fp *sim.Proc) {
				fp.SetPhase("load")
				accel.Stream(fp, fpgaWords*machine.WordBytes)
			})
			pr.SetPhase("")
			loadDone = pr.Now()
		}
		for a := 0; a < applies; a++ {
			var done *sim.Signal
			if rf > 0 {
				if resident {
					done = accel.Job(fmt.Sprintf("spmv.mv.%d", a), phase, machine.NoFill,
						float64(fpgaWords)*fpgaPerWord*accel.Placed.FreqHz)
				} else {
					fq := sim.NewMailbox(sys.Eng, fmt.Sprintf("spmv.fq.%d", a))
					done = accel.Launch(fmt.Sprintf("spmv.mv.%d", a), func(fp *sim.Proc) {
						fp.SetPhase(phase)
						for lo := 0; lo < rf; lo += chunkRows {
							hi := lo + chunkRows
							if hi > rf {
								hi = rf
							}
							fq.Get(fp)
							accel.Compute(fp, mv.ChunkCycles(rowWords(lo, hi)))
						}
					})
					pr.SetPhase(phase)
					for lo := 0; lo < rf; lo += chunkRows {
						hi := lo + chunkRows
						if hi > rf {
							hi = rf
						}
						words := rowWords(lo, hi)
						node.ChargeCPU(pr, sim.CatDMA, int64(words)*machine.WordBytes,
							float64(words)*streamPerWord)
						fq.Put(lo)
					}
					pr.SetPhase("")
				}
			}
			if rf < cfg.N {
				pr.SetPhase(phase)
				node.ChargeCPU(pr, sim.CatCompute, 0, float64(rowWords(rf, cfg.N))*cpuPerWord)
				pr.SetPhase("")
			}
			applyOpSplit(op, x, y, rf)
			op.Apply(x, yRef)
			for i := range y {
				if d := math.Abs(y[i] - yRef[i]); d > maxDiff {
					maxDiff = d
				}
			}
			if done != nil {
				accel.AwaitDone(pr, done)
			}
			if a+1 < applies {
				// Next right-hand side: the normalized image, so the
				// chain stays bounded and every apply sees fresh data.
				if n2 := matrix.Norm2(y); n2 > 0 {
					for i := range x {
						x[i] = y[i] / n2
					}
				} else {
					copy(x, y)
				}
			}
		}
	})

	res.Result = Result{App: "spmv", Mode: cfg.Mode, N: cfg.N, B: k}
	if applies > 1 {
		res.App = "spmm"
	}
	if err := m.finish("spmv", mvp.Flops, &res.Result); err != nil {
		return nil, err
	}
	res.MaxResidual, res.Checked = maxDiff, true
	res.Model = mvp
	res.Prediction = mvp.PredictSpMV(rf) // at the clamped split
	res.LoadSeconds = loadDone
	return res, nil
}

// checkMVInput rejects an operator density outside [0,1] and an input
// of the given bytes over mvInputCap, before anything is built.
func checkMVInput(app string, n int, density float64, bytes int) error {
	if !(density >= 0 && density <= 1) { // NaN fails both comparisons
		return fmt.Errorf("core: density %g out of [0,1]", density)
	}
	if bytes > mvInputCap {
		return fmt.Errorf("core: %s n=%d density %g: %w (%d bytes, cap %d)",
			app, n, density, errMVInputTooLarge, bytes, mvInputCap)
	}
	return nil
}

// mvInputBudget caps the bytes of SpMV inputs the process keeps
// between runs. It is sized to hold every sparse operator of a sweep's
// SpMV grids at once; a dense input weighs only its x0 (16 KiB at
// n=2048), so it is memoized beside them.
const mvInputBudget = 16 << 20

// mvInputCap caps the notional bytes of one SpMV input (mvNotionalBytes:
// operator stored explicitly, plus x0), so a single run cannot ask for
// more memory or operator work than a shared process can spare: 1 GiB
// admits a dense operator up to n = 11,584 and sparse ones far larger.
// Runs over it fail before anything is built.
const mvInputCap = 1 << 30

// errMVInputTooLarge reports an input over mvInputCap.
var errMVInputTooLarge = errors.New("input exceeds the SpMV input cap")

// mvInput is the generated input of an SpMV/SpMM run: the operator and
// the start vector x0. A sparse operator and x0 are drawn from one rng
// seeded with the run's seed, operator first; a dense operator draws
// nothing from it. Both are read-only once built.
type mvInput struct {
	// op is a *matrix.CSR, or a matrix.RandomDenseOp keyed by the seed
	// when density is 0, which regenerates its entries on every apply
	// and stores nothing of size n².
	op    matrix.MulVec
	x0    []float64
	bytes int // mvInputBytes of the key
}

// mvKey names an input: everything its generation reads.
type mvKey struct {
	n       int
	density float64
	seed    int64
}

// mvInputs is the process-wide input memo, least-recently-used by
// bytes within mvInputBudget. Concurrent misses on one key coalesce
// into one generation, which runs outside the memo's locks.
var mvInputs = cache.NewWeightedLoading[mvKey, *mvInput](mvInputBudget, func(in *mvInput) int { return in.bytes })

// mvInputBytes returns the heap bytes of the input for (n, density),
// its weight in the memo: the CSR arrays plus x0, or x0 alone for a
// dense operator. n must already be within mvInputCap.
func mvInputBytes(n int, density float64) int {
	if density > 0 {
		return mvNotionalBytes(n, density)
	}
	return 8 * n
}

// mvNotionalBytes returns the bytes of the input for (n, density) with
// its operator stored explicitly: the CSR arrays (row pointers, column
// indices, values) or the n×n dense matrix, plus x0. mvInputCap weighs
// inputs by it. It sizes in float64, which is exact below 2^53 bytes
// and cannot overflow, and saturates at math.MaxInt, so any n, however
// large, compares correctly against mvInputCap.
func mvNotionalBytes(n int, density float64) int {
	const word = 8
	fn := float64(n)
	words := fn*fn + fn
	if density > 0 {
		nnz := fn * float64(matrix.SparseRowNNZ(n, density)+1)
		words = (fn + 1) + 2*nnz + fn
	}
	if b := word * words; b < math.MaxInt {
		return int(b)
	}
	return math.MaxInt
}

// loadMVInput returns the input for (n, density, seed), generating it
// at most once while it stays memoized. An input larger than the whole
// budget is never cached, and the memo is emptied before it is built,
// so the operator memory held here plus the one being built stays
// within max(mvInputBudget, one operator). n and density must already
// be valid. A generation that panics (say, an operator too large to
// allocate) panics here; runs that were waiting for it get an error.
func loadMVInput(n int, density float64, seed int64) (*mvInput, error) {
	k := mvKey{n, density, seed}
	in, _, err := mvInputs.Do(context.Background(), k, func() (*mvInput, error) {
		bytes := mvInputBytes(n, density)
		if bytes > mvInputBudget {
			mvInputs.Clear()
		}
		return buildMVInput(k, bytes), nil
	})
	return in, err
}

// buildMVInput generates the input for k.
func buildMVInput(k mvKey, bytes int) *mvInput {
	rng := rand.New(rand.NewSource(k.seed))
	in := &mvInput{x0: make([]float64, k.n), bytes: bytes}
	if k.density > 0 {
		in.op = matrix.RandomSparse(k.n, k.density, rng)
	} else {
		in.op = matrix.RandomDenseOp{N: k.n, Seed: k.seed}
	}
	for i := range in.x0 {
		in.x0[i] = 2*rng.Float64() - 1
	}
	return in
}
