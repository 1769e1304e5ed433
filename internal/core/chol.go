package core

import (
	"fmt"
	"math/rand"

	"codesign/internal/cpu"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/sim"
)

// CholConfig configures a distributed block Cholesky factorization —
// the extension application the paper's conclusion points at ("extend
// the proposed model to a broader range of applications") and the third
// routine of the ScaLAPACK set it builds on [10]. The design mirrors
// the LU co-design: the panel node factors the diagonal block (opPOTRF,
// with the square-root unit's datapath) and solves the panel (opTRSM);
// the trailing symmetric update is split row-wise between processor and
// FPGA on the other p-1 nodes, with only the lower triangle's blocks
// computed (opSYRK on the diagonal, opGEMM below it).
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

type cholJob struct {
	t, u, v int // v <= u: lower-triangle block (u, v)
	e       *matrix.Dense
	arrived int
}

type cholRun struct {
	cfg     CholConfig
	sys     *machine.System
	lp      model.LUParams
	nb      int
	bf      int
	l       int
	stripes int

	charge   jobCharge
	sendTime float64

	boxes []*sim.Mailbox
	iters []*luIter

	a *matrix.Dense
}

func (cr *cholRun) blk(u, v int) *matrix.Dense {
	b := cr.cfg.B
	return cr.a.View(u*b, v*b, b, b)
}

func (cr *cholRun) computeNodes(t int) []int {
	p := cr.sys.Cfg.Nodes
	out := make([]int, 0, p-1)
	for i := 0; i < p; i++ {
		if i != t%p {
			out = append(out, i)
		}
	}
	return out
}

// RunCholesky simulates the distributed factorization.
func RunCholesky(cfg CholConfig) (*CholResult, error) {
	m, err := cholApp.start(Spec{Machine: cfg.Machine, N: cfg.N, B: cfg.B, PEs: cfg.PEs, Mode: cfg.Mode,
		Functional: cfg.Functional, Observer: cfg.Observer, Telemetry: cfg.Telemetry}, nil)
	if err != nil {
		return nil, err
	}
	sys, q := m.sys, m.q
	p, k := q.Machine.Nodes, q.K
	q.BF, q.L = cfg.BF, cfg.L
	lp, pr, err := cholHalf.model(q)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bf, l := pr.Split.BF, pr.Split.L

	cr := &cholRun{cfg: cfg, sys: sys, lp: lp, nb: cfg.N / cfg.B, bf: bf, l: l, stripes: cfg.B / k}
	// Per-job charges are the LU opMM charges; SYRK (diagonal) jobs
	// halve the compute terms at run time.
	cr.charge = opmmCharge(lp, q.Proc.Rate(cpu.DGEMM), bf, false)
	_, _, _, tcomm := lp.StripeTimes(bf)
	cr.sendTime = float64(cr.stripes) * tcomm

	var ref *matrix.Dense
	if cfg.Functional {
		rng := rand.New(rand.NewSource(cfg.Seed))
		cr.a = matrix.RandomSPD(cfg.N, rng)
		ref = cr.a.Clone()
		if err := matrix.BlockCholesky(ref, cfg.B); err != nil {
			return nil, fmt.Errorf("core: reference factorization: %w", err)
		}
	}

	for i := 0; i < p; i++ {
		cr.boxes = append(cr.boxes, sim.NewMailbox(sys.Eng, fmt.Sprintf("chol.jobs%d", i)))
	}
	for t := 0; t < cr.nb; t++ {
		rem := cr.nb - 1 - t
		it := &luIter{
			pending: rem * (rem + 1) / 2, // lower-triangle jobs
			done:    sim.NewSignal(sys.Eng, fmt.Sprintf("chol.iter%d.done", t)),
			bar:     sim.NewBarrier(sys.Eng, fmt.Sprintf("chol.iter%d.bar", t), p),
		}
		if it.pending == 0 {
			it.done.Fire()
		}
		cr.iters = append(cr.iters, it)
	}

	for i := 0; i < p; i++ {
		node := sys.Nodes[i]
		me := i
		sys.Eng.Go(fmt.Sprintf("node%d.cpu", me), func(pr *sim.Proc) {
			for t := 0; t < cr.nb; t++ {
				if me == t%p {
					cr.runPanel(pr, node, t)
				} else {
					cr.runCompute(pr, node, me, t)
				}
				it := cr.iters[t]
				it.done.Wait(pr)
				it.bar.Arrive(pr)
			}
		})
	}

	n := float64(cfg.N)
	res := &CholResult{Result: Result{App: "chol", Mode: cfg.Mode, N: cfg.N, B: cfg.B},
		BF: bf, BP: cfg.B - bf, L: l, K: k, Model: lp, Prediction: pr.Prediction}
	if err := m.finish("cholesky", n*n*n/3, &res.Result); err != nil {
		return nil, err
	}
	if cfg.Functional && ref != nil {
		res.Checked = true
		res.MaxResidual = matrix.ExtractLower(cr.a).MaxDiff(matrix.ExtractLower(ref))
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

// runPanel is iteration t on the panel node: opPOTRF then the opTRSM
// sequence, releasing trailing-update jobs l at a time.
func (cr *cholRun) runPanel(pr *sim.Proc, node *machine.Node, t int) {
	b := cr.cfg.B
	nb := cr.nb
	pr.SetPhase("panel")
	defer pr.SetPhase("")

	// opPOTRF: (1/3)b³ flops at the factorization routine rate.
	node.ComputeCPU(pr, cpu.DGETRF, cpu.DgetrfFlops(b)/2)
	if cr.a != nil {
		if err := matrix.Cholesky(cr.blk(t, t)); err != nil {
			panic(fmt.Sprintf("opPOTRF iteration %d: %v", t, err))
		}
	}

	var ready []*cholJob
	send := func(limit int) {
		for limit != 0 && len(ready) > 0 {
			j := ready[0]
			ready = ready[1:]
			cr.sendJob(pr, node, t, j)
			if limit > 0 {
				limit--
			}
		}
	}

	for u := t + 1; u < nb; u++ {
		// opTRSM on panel block (u, t).
		node.ComputeCPU(pr, cpu.DTRSM, cpu.DtrsmFlops(b))
		if cr.a != nil {
			matrix.TrsmRightLowerT(cr.blk(t, t), cr.blk(u, t))
		}
		// Jobs (u, v) for v <= u are now ready.
		for v := t + 1; v <= u; v++ {
			j := &cholJob{t: t, u: u, v: v}
			if cr.a != nil && u != v {
				j.e = matrix.New(b, b)
			}
			ready = append(ready, j)
		}
		send(cr.l)
	}
	send(-1)
	for _, dst := range cr.computeNodes(t) {
		cr.boxes[dst].Put(luSentinel{t: t})
	}
}

func (cr *cholRun) sendJob(pr *sim.Proc, node *machine.Node, t int, j *cholJob) {
	bytes := 2 * cr.cfg.B * cr.cfg.B * machine.WordBytes
	if j.u == j.v {
		bytes /= 2 // SYRK needs only one panel block
	}
	dsts := cr.computeNodes(t)
	prevPhase := pr.Phase()
	pr.SetPhase("broadcast")
	cr.sys.Fab.Multicast(pr, node.ID, dsts, bytes)
	pr.SetPhase(prevPhase)
	for _, dst := range dsts {
		cr.boxes[dst].Put(j)
	}
}

// runCompute processes this node's share of the trailing update jobs.
func (cr *cholRun) runCompute(pr *sim.Proc, node *machine.Node, me, t int) {
	cn := cr.computeNodes(t)
	ci := 0
	for idx, n := range cn {
		if n == me {
			ci = idx
		}
	}
	w := cr.cfg.B / (cr.sys.Cfg.Nodes - 1)
	pr.SetPhase("opmm")
	defer pr.SetPhase("")
	for {
		msg := cr.boxes[me].Get(pr)
		if s, ok := msg.(luSentinel); ok {
			if s.t != t {
				panic(fmt.Sprintf("core: node %d got sentinel for iteration %d during %d", me, s.t, t))
			}
			return
		}
		j := msg.(*cholJob)
		ch := cr.charge
		if j.u == j.v {
			// Symmetric update: half the arithmetic, half the traffic.
			ch.cpuRecv /= 2
			ch.cpuDMA /= 2
			ch.cpuGemm /= 2
			ch.fpgaCycles /= 2
			ch.dmaBytes /= 2
		}

		var done *sim.Signal
		if ch.fpgaCycles > 0 {
			done = node.Accel.Job(sim.Name("chol.fpga", t, j.u, j.v, me), "opmm", ch.fpgaLag, ch.fpgaCycles)
		}
		// The three CPU charges fuse into one engine park (ChargeCPUSeq).
		var seq [3]sim.Charge
		cs := seq[:0]
		if ch.cpuRecv > 0 {
			cs = append(cs, sim.Charge{Cat: sim.CatNetwork, Dt: ch.cpuRecv})
		}
		if ch.cpuDMA > 0 {
			cs = append(cs, sim.Charge{Cat: sim.CatDMA, Bytes: ch.dmaBytes, Dt: ch.cpuDMA})
		}
		if ch.cpuGemm > 0 {
			cs = append(cs, sim.Charge{Cat: sim.CatCompute, Dt: ch.cpuGemm})
		}
		node.ChargeCPUSeq(pr, cs)
		if j.e != nil {
			// Functional off-diagonal update slice:
			// E[:, cols] = L_u,t · (L_v,t)ᵀ[:, cols].
			eSlice := j.e.View(0, ci*w, cr.cfg.B, w)
			bT := cr.blk(j.v, j.t).Transpose()
			matrix.Gemm(1, cr.blk(j.u, j.t), bT.View(0, ci*w, cr.cfg.B, w), 0, eSlice)
		}
		if done != nil {
			node.Accel.AwaitDone(pr, done)
		}
		cr.forwardResult(pr, me, t, j)
	}
}

func (cr *cholRun) forwardResult(pr *sim.Proc, me, t int, j *cholJob) {
	p := cr.sys.Cfg.Nodes
	owner := j.u % p // block (u,v) lives in block-row u
	sliceBytes := cr.cfg.B * cr.cfg.B / (p - 1) * machine.WordBytes
	if j.u == j.v {
		sliceBytes /= 2
	}
	prevPhase := pr.Phase()
	pr.SetPhase("scatter")
	cr.sys.Fab.Transfer(pr, me, owner, sliceBytes)
	pr.SetPhase(prevPhase)
	j.arrived++
	if j.arrived < p-1 {
		return
	}
	ownerNode := cr.sys.Nodes[owner]
	it := cr.iters[t]
	b := cr.cfg.B
	unpack := float64(b*b*machine.WordBytes) / cr.lp.Bn
	sub := cpu.SubtractFlops(b)
	if j.u == j.v {
		unpack /= 2
		sub /= 2
	}
	ownerNode.CPUTask(sim.Name("chol.opms", t, j.u, j.v), "opms", []sim.Charge{
		{Cat: sim.CatNetwork, Dt: unpack},
		{Cat: sim.CatCompute, Dt: ownerNode.Proc.Time(cpu.Subtract, sub)},
	}, func() {
		if cr.a != nil {
			if j.u == j.v {
				// Diagonal: symmetric rank-b update, lower only.
				matrix.Syrk(cr.blk(j.u, j.t), cr.blk(j.u, j.u))
			} else {
				cr.blk(j.u, j.v).Sub(j.e)
			}
		}
		it.pending--
		if it.pending == 0 {
			it.done.Fire()
		}
	})
}
