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

// QRConfig configures a distributed blocked Householder QR
// factorization — the last routine of the ScaLAPACK trio [10] and the
// second extension application. The co-design follows the LU pattern:
// the panel node factors a block column (opGEQRF on the processor) and
// broadcasts the reflectors; the trailing block columns — each an
// independent pair of GEMMs in the compact-WY application of the panel
// — are distributed round-robin over all nodes and split row-wise
// between processor and FPGA per Equation (4).
type QRConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the (square) matrix size, B the block size (multiple of the
	// PE count; N a multiple of B).
	N, B int
	// PEs is the matmul design size; 0 means the largest that fits.
	PEs int
	// BF is the FPGA row share; -1 solves Equation (4).
	BF int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional factors a real matrix and checks the factored form
	// against the sequential blocked reference bit for bit.
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

// QRResult extends Result with the QR-specific configuration.
type QRResult struct {
	Result
	// BF and BP are the stripe row split, K the PE count.
	BF, BP, K int
	// Model is the cost-model instance behind the partition.
	Model model.LUParams
	// Prediction is the Section 4.5 closed-form forecast at the split.
	Prediction model.Prediction
}

type qrBcast struct{ t int }

// RunQR simulates the distributed factorization.
func RunQR(cfg QRConfig) (*QRResult, error) {
	m, err := qrApp.start(Spec{Machine: cfg.Machine, N: cfg.N, B: cfg.B, PEs: cfg.PEs, Mode: cfg.Mode,
		Functional: cfg.Functional, Observer: cfg.Observer, Telemetry: cfg.Telemetry}, nil)
	if err != nil {
		return nil, err
	}
	sys, q := m.sys, m.q
	p, k := q.Machine.Nodes, q.K
	q.BF = cfg.BF
	lp, pr, err := qrHalf.model(q)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bf := pr.Split.BF

	nb := cfg.N / cfg.B
	b := cfg.B

	// Per-node LU opMM charge (2b³/(p-1) flops at split bf). A QR
	// trailing-column job is collective like opMM: each of the p-1
	// compute nodes applies the panel to its b/(p-1) column slice,
	// 4·rows·b²/(p-1) flops — the LU charge scaled by 2·rows/b.
	baseCharge := opmmCharge(lp, q.Proc.Rate(cpu.DGEMM), bf, false)
	chargeFor := func(rows int) jobCharge {
		c := baseCharge.scaled(2 * float64(rows) / float64(b))
		c.cpuRecv = 0 // operands are node-local; only the panel arrives
		return c
	}

	// Functional state.
	var a, ref *matrix.Dense
	var tau []float64
	if cfg.Functional {
		rng := rand.New(rand.NewSource(cfg.Seed))
		a = matrix.Random(cfg.N, cfg.N, rng)
		ref = a.Clone()
		matrix.BlockQR(ref, b)
		tau = make([]float64, cfg.N)
	}

	bcast := make([]*sim.Mailbox, p)
	for i := 0; i < p; i++ {
		bcast[i] = sim.NewMailbox(sys.Eng, fmt.Sprintf("qr.bcast%d", i))
	}
	// panelReady[t] fires when iteration t's panel column holds all of
	// iteration t-1's updates (its slices gathered at the panel owner).
	panelReady := make([]*sim.Signal, nb)
	panelPending := make([]int, nb)
	for t := range panelReady {
		panelReady[t] = sim.NewSignal(sys.Eng, fmt.Sprintf("qr.panel%d.ready", t))
		panelPending[t] = p - 1
	}
	panelReady[0].Fire()

	w := b / (p - 1) // result columns per compute node within a job
	for i := 0; i < p; i++ {
		node := sys.Nodes[i]
		me := i
		sys.Eng.Go(fmt.Sprintf("node%d.cpu", me), func(pr *sim.Proc) {
			for t := 0; t < nb; t++ {
				rows := cfg.N - t*b
				panelBytes := rows * b * machine.WordBytes
				if me == t%p {
					panelReady[t].Wait(pr)
					// opGEQRF on the panel.
					pr.SetPhase("panel")
					node.ComputeCPU(pr, cpu.DGETRF, matrix.QRFlopsPanel(rows, b))
					if a != nil {
						factorPanel(a, tau, t, b)
					}
					dsts := make([]int, 0, p-1)
					for d := 0; d < p; d++ {
						if d != me {
							dsts = append(dsts, d)
						}
					}
					pr.SetPhase("broadcast")
					sys.Fab.Multicast(pr, me, dsts, panelBytes)
					pr.SetPhase("")
					for _, d := range dsts {
						bcast[d].Put(qrBcast{t: t})
					}
					continue // the panel node sits out the updates (as in LU)
				}
				m := bcast[me].Get(pr).(qrBcast)
				if m.t != t {
					panic(fmt.Sprintf("core: node %d expected panel %d, got %d", me, t, m.t))
				}
				// Unpack the panel; the wire span carried the bytes.
				pr.SetPhase("broadcast")
				node.ChargeCPU(pr, sim.CatNetwork, 0, float64(panelBytes)/lp.Bn)
				pr.SetPhase("update")

				// Column-slice index of this node among the compute set.
				ci := me
				if me > t%p {
					ci--
				}
				ch := chargeFor(rows)
				for j := t + 1; j < nb; j++ {
					var done *sim.Signal
					if ch.fpgaCycles > 0 {
						done = node.Accel.Job(sim.Name("qr.fpga", t, j, me), "update", ch.fpgaLag, ch.fpgaCycles)
					}
					// The CPU charges fuse into one engine park.
					var seq [3]sim.Charge
					node.ChargeCPUSeq(pr, ch.cpuCharges(seq[:0]))
					if a != nil {
						applyPanelSlice(a, tau, t, b, j*b+ci*w, w)
					}
					if done != nil {
						node.Accel.AwaitDone(pr, done)
					}
					if j == t+1 {
						// Ship this slice of the next panel column to
						// its owner so iteration t+1 can start.
						owner := (t + 1) % p
						sliceBytes := (rows - b) * w * machine.WordBytes
						pr.SetPhase("scatter")
						sys.Fab.Transfer(pr, me, owner, sliceBytes)
						pr.SetPhase("update")
						panelPending[t+1]--
						if panelPending[t+1] == 0 {
							panelReady[t+1].Fire()
						}
					}
				}
			}
		})
	}

	n := float64(cfg.N)
	res := &QRResult{Result: Result{App: "qr", Mode: cfg.Mode, N: cfg.N, B: b},
		BF: bf, BP: b - bf, K: k, Model: lp, Prediction: pr.Prediction}
	if err := m.finish("qr", 4.0/3.0*n*n*n, &res.Result); err != nil {
		return nil, err
	}
	if cfg.Functional && ref != nil {
		res.Checked = true
		res.MaxResidual = a.MaxDiff(ref)
	}
	return res, nil
}

// factorPanel runs the Householder panel factorization on global
// columns [t·b, (t+1)·b) of a (functional mode).
func factorPanel(a *matrix.Dense, tau []float64, t, b int) {
	lo, hi := t*b, (t+1)*b
	for k := lo; k < hi; k++ {
		tau[k] = matrix.HouseGen(a, k)
		matrix.HouseApply(a, k, tau[k], k+1, hi)
	}
}

// applyPanelSlice applies panel t's reflectors (block size b), in
// order, to the w columns starting at global column cLo.
func applyPanelSlice(a *matrix.Dense, tau []float64, t, b, cLo, w int) {
	for k := t * b; k < (t+1)*b; k++ {
		matrix.HouseApply(a, k, tau[k], cLo, cLo+w)
	}
}

// predictQR is the Section 4.5 predictor for the QR design: per
// iteration the panel runs on one processor while every trailing
// column's collective update runs on the p-1 compute nodes with the
// Equation (4) row split (a scaled opMM).
func predictQR(lp model.LUParams, n, bf int) model.Prediction {
	b := lp.B
	nb := n / b
	tf, tp, tmem, _ := lp.StripeTimes(bf)
	stripes := float64(b / lp.K)
	var ttp, ttf float64
	for t := 0; t < nb; t++ {
		rows := float64(n - t*b)
		jobs := float64(nb - 1 - t)
		s := 2 * rows / float64(b) // QR job vs LU opMM flop ratio
		panel := 2 * rows * float64(b) * float64(b) / lp.LURate
		cpuNode := jobs * s * stripes * (tmem + tp)
		fpgaNode := jobs * s * stripes * tf
		ttp += math.Max(panel, cpuNode)
		ttf += fpgaNode
	}
	nn := float64(n)
	flops := 4.0 / 3.0 * nn * nn * nn
	pr := model.Prediction{Ttp: ttp, Ttf: ttf, Flops: flops}
	pr.Seconds = math.Max(ttp, ttf)
	pr.GFLOPS = flops / pr.Seconds / 1e9
	return pr
}
