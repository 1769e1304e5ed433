package core

import (
	"fmt"
	"math/rand"

	"codesign/internal/cpu"
	"codesign/internal/dist"
	"codesign/internal/fault"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/obs"
	"codesign/internal/sim"
)

// FWConfig configures a distributed blocked Floyd-Warshall run
// (Section 5.2.3).
type FWConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the vertex count, B the block size. B·p must divide N and B
	// must be a multiple of the PE count.
	N, B int
	// PEs is the FW design size; 0 means the largest that fits.
	PEs int
	// L1 is the processor's whole-task share per phase; -1 solves
	// Equation (6). L2 is the remainder of n/(b·p). (Baselines force
	// L1: ProcessorOnly takes all, FPGAOnly none.)
	L1 int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional carries a real distance matrix through the run and
	// checks it against the sequential blocked reference.
	Functional bool
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span summary (a trace.Summary folded from
	// every span as the run emits it, none of them kept) —
	// utilization, bytes moved, and the Tp/Tf/Tmem/Tcomm overlap
	// decomposition — to the result.
	Telemetry bool
	// Seed drives functional graph generation.
	Seed int64
	// Density is the functional graph's edge density (0 = 0.3).
	Density float64
	// Faults, when non-nil, enables fault injection and degraded mode:
	// the pivot-column owner re-solves Equation (6) at iteration
	// boundaries when sustained rate divergence is detected. Node-kill
	// faults are rejected — the contiguous block-column distribution
	// cannot shed an owner. Incompatible with Functional.
	Faults *fault.Injector
	// Metrics, when non-nil, receives live core_* observability samples
	// (repartition counts by reason, live-node gauge). Publishing never
	// changes simulated results.
	Metrics *obs.Registry
}

// FWResult extends Result with the FW-specific configuration.
type FWResult struct {
	Result
	// L1 and L2 are the processor and FPGA ops per phase, K the PE
	// count.
	L1, L2, K int
	// IterationSeconds is each outer iteration's latency.
	IterationSeconds []float64
	// Model is the cost-model instance behind the partition.
	Model model.FWParams
	// Prediction is the Section 4.5 closed-form forecast at the split.
	Prediction model.Prediction
}

// fwBcast is a broadcast token: the diagonal block (phase 0) or an op22
// result row block (later phases) of iteration t.
type fwBcast struct {
	t, ph int
}

type fwRun struct {
	cfg     FWConfig
	sys     *machine.System
	fp      model.FWParams
	nb      int
	cols    dist.ColumnBlocks
	colsPer int // owned block columns per node (= ops per phase)
	l1, l2  int

	tp, tf, tmem, tcomm float64
	blockCycles         float64

	bcast []*sim.Mailbox

	d *matrix.Dense // functional distance matrix

	// Degraded-mode state, used only under fault injection.
	tracker      *faultTracker
	repartitions []Repartition
}

func (fr *fwRun) blk(u, v int) *matrix.Dense {
	b := fr.cfg.B
	return fr.d.View(u*b, v*b, b, b)
}

// owner returns the node owning block column c per the contiguous
// block-column distribution of Section 5.2.3.
func (fr *fwRun) owner(c int) int { return fr.cols.Owner(c) }

// fwGeometry is fw's geometry check: each node owns a whole number of
// b-wide block columns, and the k-PE array divides the block.
func fwGeometry(p, n, b, k int) error {
	switch {
	case n <= 0 || b <= 0 || p <= 0 || n%(b*p) != 0:
		return fmt.Errorf("b*p=%d must divide n=%d", b*p, n)
	case b%k != 0:
		return fmt.Errorf("block size %d must be a multiple of k=%d", b, k)
	}
	return nil
}

// fwModel is fw's model half: FWModel, the Eq. 6 whole-task split of
// each phase's n/(b·p) ops, and the Section 4.5 prediction at it.
func fwModel(q Pricing) (model.FWParams, Priced, error) {
	fp := FWModel(q.Machine, q.Proc, q.B, q.K, q.Ff, q.Bd)
	var pr Priced
	if err := fp.Validate(); err != nil {
		return fp, pr, err
	}
	total := fp.OpsPerPhase(q.N)
	l1 := q.L1
	switch q.Mode {
	case ProcessorOnly:
		l1 = total
	case FPGAOnly:
		l1 = 0
	default:
		if l1 < 0 {
			l1, _ = pr.solve(q.Memo, PartitionSolve{Kind: "fw.l1", Params: fp, Arg: q.N})
		}
	}
	if l1 < 0 || l1 > total {
		return fp, pr, fmt.Errorf("l1=%d out of [0,%d]", l1, total)
	}
	l2 := total - l1
	pr.Split = Split{L1: l1, L2: l2}
	pr.Prediction = fp.PredictFW(q.N, l1, l2)
	pr.Binding, pr.Margin = fp.PhaseBinding(l1, l2)
	return fp, pr, nil
}

// RunFW builds the machine, derives the whole-task split from the
// design model, simulates the distributed computation and returns the
// measured results.
func RunFW(cfg FWConfig) (*FWResult, error) {
	m, err := fwApp.start(Spec{Machine: cfg.Machine, N: cfg.N, B: cfg.B, PEs: cfg.PEs, Mode: cfg.Mode,
		Functional: cfg.Functional, Observer: cfg.Observer, Telemetry: cfg.Telemetry, Faults: cfg.Faults}, nil)
	if err != nil {
		return nil, err
	}
	sys, q := m.sys, m.q
	p, k := q.Machine.Nodes, q.K
	q.L1 = cfg.L1
	fp, pr, err := fwModel(q)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	fr := &fwRun{cfg: cfg, sys: sys, fp: fp, nb: cfg.N / cfg.B, l1: pr.Split.L1, l2: pr.Split.L2}
	if cfg.Faults != nil {
		fr.tracker = newFaultTracker(cfg.Faults)
	}
	fr.cols, err = dist.CheckedColumnBlocks(fr.nb, p)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	fr.colsPer = fr.cols.PerNode()
	fr.tp, fr.tf, fr.tmem, fr.tcomm = fp.BlockTimes()
	fr.blockCycles = fpga.NewFW(k).Cycles(cfg.B)

	var ref *matrix.Dense
	if cfg.Functional {
		density := cfg.Density
		if density <= 0 {
			density = 0.3
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		fr.d = matrix.RandomGraph(cfg.N, density, rng)
		ref = fr.d.Clone()
		matrix.BlockedFloydWarshall(ref, cfg.B)
	}

	for i := 0; i < p; i++ {
		fr.bcast = append(fr.bcast, sim.NewMailbox(sys.Eng, fmt.Sprintf("fw.bcast%d", i)))
	}

	iterEnd := make([]float64, fr.nb)
	for i := 0; i < p; i++ {
		node := sys.Nodes[i]
		me := i
		sys.Eng.Go(fmt.Sprintf("node%d.cpu", me), func(pr *sim.Proc) {
			for t := 0; t < fr.nb; t++ {
				fr.runIteration(pr, node, me, t)
				if me == 0 {
					iterEnd[t] = pr.Now()
				}
			}
		})
	}

	n := float64(cfg.N)
	res := &FWResult{Result: Result{App: "fw", Mode: cfg.Mode, N: cfg.N, B: cfg.B}}
	if err := m.finish("fw", 2*n*n*n, &res.Result); err != nil {
		return nil, err
	}
	res.L1, res.L2, res.K = fr.l1, fr.l2, k
	res.Model = fp
	// At the final split: a fault injector may have re-solved it.
	res.Prediction = fp.PredictFW(cfg.N, fr.l1, fr.l2)
	prev := 0.0
	for _, tEnd := range iterEnd {
		res.IterationSeconds = append(res.IterationSeconds, tEnd-prev)
		prev = tEnd
	}
	if cfg.Faults != nil {
		res.Repartitions = fr.repartitions
	}
	if cfg.Functional && ref != nil {
		res.Checked = true
		res.MaxResidual = fr.d.MaxDiff(ref)
	}
	return res, nil
}

// runIteration is iteration t on node me: nb phases, each preceded by a
// broadcast from the pivot-column owner, each performing this node's
// n/(b·p) block operations split between processor and FPGA.
func (fr *fwRun) runIteration(pr *sim.Proc, node *machine.Node, me, t int) {
	tq := fr.owner(t)
	nb := fr.nb

	// Degraded mode: node 0 samples the divergence tracker once per
	// iteration boundary and re-solves the Equation (6) split when the
	// observed rates have drifted from the ones it was solved against.
	if fr.tracker != nil && me == 0 {
		fr.maybeRepartition(pr.Now(), t)
	}

	// rowSeq is the broadcast order of op22 row blocks (all rows but t).
	rowAt := func(ph int) int { // for phases 1..nb-1
		u := ph - 1
		if u >= t {
			u++
		}
		return u
	}

	myCols := make([]int, 0, fr.colsPer)
	for c := me * fr.colsPer; c < (me+1)*fr.colsPer; c++ {
		myCols = append(myCols, c)
	}

	for ph := 0; ph < nb; ph++ {
		// --- Broadcast for this phase. ---
		if me == tq {
			if ph == 0 {
				// op1 on the diagonal block — on the owner's
				// processor, except in the FPGA-only baseline.
				nFPGA := 0
				if fr.cfg.Mode == FPGAOnly {
					nFPGA = 1
				}
				fr.runOps(pr, node, t, ph, []fwOp{{kind: op1, u: t, v: t}}, nFPGA)
			}
			fr.multicast(pr, me, t, ph)
		} else {
			m := fr.bcast[me].Get(pr).(fwBcast)
			if m.t != t || m.ph != ph {
				panic(fmt.Sprintf("core: node %d expected bcast (%d,%d), got (%d,%d)", me, t, ph, m.t, m.ph))
			}
			// Unpack the pivot block; the wire span carried the bytes.
			pr.SetPhase("broadcast")
			node.ChargeCPU(pr, sim.CatNetwork, 0, fr.tcomm)
			pr.SetPhase("")
		}

		// --- This phase's block operations. ---
		// The owner's op22 for the next phase's broadcast goes first
		// so the whole-task split keeps it in the processor segment.
		var ops []fwOp
		if me == tq && ph < nb-1 {
			ops = append(ops, fwOp{kind: op22, u: rowAt(ph + 1), v: t})
		}
		if ph == 0 {
			for _, q := range myCols {
				if q != t {
					ops = append(ops, fwOp{kind: op21, u: t, v: q})
				}
			}
		} else {
			u := rowAt(ph)
			for _, q := range myCols {
				if q != t {
					ops = append(ops, fwOp{kind: op3, u: u, v: q})
				}
			}
		}
		nFPGA := fr.l2
		if nFPGA > len(ops) {
			nFPGA = len(ops)
		}
		fr.runOps(pr, node, t, ph, ops, nFPGA)
	}
}

// maybeRepartition re-solves the whole-task split against the observed
// degradation when the tracker fires. A caller-pinned L1 (>= 0) and the
// baselines stay pinned, but the detection is still recorded so the
// resilience report shows recovery lag either way.
func (fr *fwRun) maybeRepartition(now float64, t int) {
	d, fire := fr.tracker.sample(now)
	if !fire {
		return
	}
	if fr.cfg.Mode == Hybrid && fr.cfg.L1 < 0 {
		l1, l2 := fr.fp.Repartition(fr.cfg.N, d)
		total := fr.colsPer
		if l1 > total {
			l1, l2 = total, 0
		}
		if l2 > total {
			l1, l2 = 0, total
		}
		fr.l1, fr.l2 = l1, l2
	}
	fr.repartitions = append(fr.repartitions, Repartition{
		Time: now, Iteration: t, Reason: "divergence",
		Live: fr.sys.Cfg.Nodes, L1: fr.l1, L2: fr.l2,
		Factors: d.Normalized(),
	})
	recordRepartition(fr.cfg.Metrics, "divergence", fr.sys.Cfg.Nodes)
}

type fwOpKind int

const (
	op1 fwOpKind = iota
	op21
	op22
	op3
)

type fwOp struct {
	kind fwOpKind
	u, v int
}

// runOps executes a batch of block operations with the whole-task split:
// the last nFPGA go to the FPGA (streamed by the processor per
// Equation 6), the rest run on the processor.
func (fr *fwRun) runOps(pr *sim.Proc, node *machine.Node, t, ph int, ops []fwOp, nFPGA int) {
	if len(ops) == 0 {
		return
	}
	pr.SetPhase("op")
	defer pr.SetPhase("")
	if nFPGA > len(ops) {
		nFPGA = len(ops)
	}
	cpuOps := ops[:len(ops)-nFPGA]
	fpgaOps := ops[len(ops)-nFPGA:]

	var done *sim.Signal
	var seq [2]sim.Charge
	cs := seq[:0]
	if len(fpgaOps) > 0 {
		// The first block's stream is exposed as the operand fill.
		cycles := float64(len(fpgaOps)) * fr.blockCycles
		done = node.Accel.Job(sim.Name("fw.fpga", t, ph, node.ID), "op", fr.tmem, cycles)
		// The processor streams the FPGA's operand blocks (Eq. 6
		// charges l2·Tmem to the processor side): 2b² words per block.
		b := fr.cfg.B
		dmaBytes := int64(len(fpgaOps)) * int64(2*b*b) * machine.WordBytes
		cs = append(cs, sim.Charge{Cat: sim.CatDMA, Bytes: dmaBytes, Dt: float64(len(fpgaOps)) * fr.tmem})
	}
	if len(cpuOps) > 0 {
		cs = append(cs, sim.Charge{Cat: sim.CatCompute,
			Dt: node.Proc.Time(cpu.FWKernel, float64(len(cpuOps))*cpu.FWBlockFlops(fr.cfg.B))})
	}
	// DMA staging and the CPU kernel fuse into one engine park.
	node.ChargeCPUSeq(pr, cs)
	if fr.d != nil {
		for _, op := range ops {
			fr.apply(op, t)
		}
	}
	if done != nil {
		node.Accel.AwaitDone(pr, done)
	}
}

// apply runs one block operation functionally.
func (fr *fwRun) apply(op fwOp, t int) {
	switch op.kind {
	case op1:
		matrix.FWKernel(fr.blk(t, t))
	case op21:
		matrix.FWRowUpdate(fr.blk(t, op.v), fr.blk(t, t))
	case op22:
		matrix.FWColUpdate(fr.blk(op.u, t), fr.blk(t, t))
	case op3:
		matrix.MinPlusGemm(fr.blk(op.u, t), fr.blk(t, op.v), fr.blk(op.u, op.v))
	}
}

// multicast broadcasts a b×b block to all other nodes (the phase's
// pivot data) and delivers the token.
func (fr *fwRun) multicast(pr *sim.Proc, me, t, ph int) {
	p := fr.sys.Cfg.Nodes
	if p == 1 {
		return
	}
	dsts := make([]int, 0, p-1)
	for i := 0; i < p; i++ {
		if i != me {
			dsts = append(dsts, i)
		}
	}
	bytes := fr.cfg.B * fr.cfg.B * machine.WordBytes
	pr.SetPhase("broadcast")
	fr.sys.Fab.Multicast(pr, me, dsts, bytes)
	pr.SetPhase("")
	for _, d := range dsts {
		fr.bcast[d].Put(fwBcast{t: t, ph: ph})
	}
}
