package core

import (
	"fmt"
	"math/rand"

	"codesign/internal/cpu"
	"codesign/internal/fault"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/sim"
)

// MMConfig configures a distributed hybrid matrix multiplication run —
// the extension application from the authors' earlier hybrid work [22]
// and the pure Equation (1) case of the design model: C = A·B with the
// result columns split across nodes and, within each node, the result
// rows of every k-column stripe split between processor and FPGA. No
// network communication: operands are resident per node, so the
// partition balances only compute and DRAM streaming.
type MMConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the matrix size (multiple of both the PE count and p).
	N int
	// PEs is the matmul design size; 0 means the largest that fits.
	PEs int
	// BF is the FPGA result-row share per stripe; -1 solves Eq. (1).
	BF int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional multiplies real matrices and verifies the result.
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
	// Faults, when non-nil, is installed into every charging path of
	// the machine (see machine.System.InstallFaults); incompatible with
	// Functional. MM has no degraded mode: faults dilate the charges
	// but the partition stays fixed.
	Faults *fault.Injector
}

// MMResult extends Result with the multiply-specific configuration.
type MMResult struct {
	Result
	// BF and BP are the result-row split per stripe, K the PE count.
	BF, BP, K int
	// Model is the cost-model instance behind the partition.
	Model model.MMParams
	// Prediction is the Section 4.5 closed-form forecast at the split.
	Prediction model.Prediction
}

// mmGeometry is mm's geometry check: the k-PE stripes and the p
// nodes' result columns both tile n.
func mmGeometry(p, n, _, k int) error {
	switch {
	case n <= 0 || n%k != 0:
		return fmt.Errorf("n=%d must be a multiple of k=%d", n, k)
	case n%p != 0:
		return fmt.Errorf("n=%d must be a multiple of p=%d", n, p)
	}
	return nil
}

// mmModel is mm's model half: the model of an n×n product on a k-PE
// matmul array, the Eq. 1 result-row split of each stripe, and the
// Section 4.5 prediction at it.
func mmModel(q Pricing) (model.MMParams, Priced, error) {
	mp := model.MMParams{P: q.Machine.Nodes, N: q.N, K: q.K, Ff: q.Ff, Bd: q.Bd, Bw: machine.WordBytes,
		StripeRate: q.Proc.Rate(cpu.DGEMMStripe), SRAMBytes: designSRAM(q.Machine)}
	var pr Priced
	if err := mp.Validate(); err != nil {
		return mp, pr, err
	}
	bf, err := SolveShare(q.Mode, "bf", q.BF, q.N, func() (int, int) {
		return pr.solve(q.Memo, PartitionSolve{Kind: "mm.bf", Params: mp})
	})
	if err != nil {
		return mp, pr, err
	}
	pr.Split = Split{BF: bf, BP: q.N - bf}
	pr.Prediction = mp.PredictMM(bf)
	pr.Binding, pr.Margin = mp.StripeBinding(bf)
	return mp, pr, nil
}

// RunMM builds the machine and simulates the stripe-pipelined multiply.
func RunMM(cfg MMConfig) (*MMResult, error) {
	m, err := mmApp.start(Spec{Machine: cfg.Machine, N: cfg.N, PEs: cfg.PEs, Mode: cfg.Mode,
		Functional: cfg.Functional, Observer: cfg.Observer, Telemetry: cfg.Telemetry, Faults: cfg.Faults}, nil)
	if err != nil {
		return nil, err
	}
	sys, q := m.sys, m.q
	p, k := q.Machine.Nodes, q.K
	q.BF = cfg.BF
	mp, pr, err := mmModel(q)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bf := pr.Split.BF

	_, tp, tmem := mp.StripeTimes(bf)
	stripes := cfg.N / k
	w := mp.Width()
	d := fpga.MatMulDesign{K: k}
	fpgaStripeCycles := d.StripeCycles(1, bf, w, 1)

	// Functional state.
	var a, b, c, ref *matrix.Dense
	if cfg.Functional {
		rng := rand.New(rand.NewSource(cfg.Seed))
		a = matrix.Random(cfg.N, cfg.N, rng)
		b = matrix.Random(cfg.N, cfg.N, rng)
		c = matrix.New(cfg.N, cfg.N)
		ref = matrix.Mul(a, b)
	}

	for i := 0; i < p; i++ {
		node := sys.Nodes[i]
		me := i
		var fpgaDone *sim.Signal
		fq := sim.NewMailbox(sys.Eng, fmt.Sprintf("mm.fq%d", me))
		if bf > 0 {
			acc := node.Accel
			fpgaDone = acc.Launch(fmt.Sprintf("mm.fpga%d", me), func(fp *sim.Proc) {
				fp.SetPhase("stripe")
				for s := 0; s < stripes; s++ {
					fq.Get(fp)
					acc.Compute(fp, fpgaStripeCycles)
				}
			})
		}
		stripeDMABytes := int64(d.StripeWords(1, bf, w, 1)) * machine.WordBytes
		sys.Eng.Go(fmt.Sprintf("mm.cpu%d", me), func(pr *sim.Proc) {
			pr.SetPhase("stripe")
			for s := 0; s < stripes; s++ {
				if bf > 0 {
					// Stream the stripe to the FPGA.
					node.ChargeCPU(pr, sim.CatDMA, stripeDMABytes, tmem)
					fq.Put(s)
				}
				if bf < cfg.N {
					// Software rows of the stripe.
					node.ChargeCPU(pr, sim.CatCompute, 0, tp)
				}
			}
			pr.SetPhase("")
			if c != nil {
				// Functional: this node's w result columns, all rows
				// (the bf/bp split is the same arithmetic).
				cols := c.View(0, me*w, cfg.N, w)
				bCols := b.View(0, me*w, cfg.N, w)
				matrix.Gemm(1, a, bCols, 0, cols)
			}
			if fpgaDone != nil {
				node.Accel.AwaitDone(pr, fpgaDone)
			}
		})
	}

	n := float64(cfg.N)
	res := &MMResult{Result: Result{App: "mm", Mode: cfg.Mode, N: cfg.N, B: k},
		BF: bf, BP: cfg.N - bf, K: k, Model: mp, Prediction: pr.Prediction}
	if err := m.finish("mm", 2*n*n*n, &res.Result); err != nil {
		return nil, err
	}
	if cfg.Functional {
		res.Checked = true
		res.MaxResidual = c.MaxDiff(ref)
	}
	return res, nil
}
