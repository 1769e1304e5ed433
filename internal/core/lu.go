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

// LUConfig configures a distributed block LU decomposition run
// (Section 5.1.3).
type LUConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the matrix size, B the block size. B must divide N and be a
	// multiple of both the PE count and p-1 (Section 6.1).
	N, B int
	// PEs is the matmul design size; 0 means the largest that fits.
	PEs int
	// BF is the FPGA row share of each stripe; -1 solves Equation (4).
	// (Ignored for the baselines: ProcessorOnly forces 0, FPGAOnly B.)
	BF int
	// L is the panel pipeline depth of Equation (5); -1 solves it,
	// 0 disables panel/opMM overlap entirely (operands are sent only
	// after all panel operations finish).
	L int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional carries real matrices through the simulated machine
	// and checks the result against the sequential reference.
	Functional bool
	// Seed drives functional input generation.
	Seed int64
	// DisableStripeOverlap is the ablation of Section 5.1.3's
	// pipelining: the FPGA waits for the whole operand transfer of
	// every stripe instead of only the first.
	DisableStripeOverlap bool
	// InterruptibleRoutines is the ablation of the atomic-ACML-routine
	// effect (Section 6.2): operand sends overlap the panel node's
	// routines instead of serializing with them.
	InterruptibleRoutines bool
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span summary (a trace.Summary folded from
	// every span as the run emits it, none of them kept) —
	// utilization, bytes moved, and the Tp/Tf/Tmem/Tcomm overlap
	// decomposition — to the result.
	Telemetry bool
	// WholeTaskOpMM is the ablation of split-task partitioning: instead
	// of splitting each opMM's rows between processor and FPGA, whole
	// opMM jobs alternate between the two resources (the strategy the
	// paper reserves for dependency-heavy tasks, applied where it does
	// not belong).
	WholeTaskOpMM bool
	// Faults, when non-nil, is installed into every charging path of the
	// machine (see machine.System.InstallFaults) and enables degraded
	// mode: at iteration boundaries the run re-solves Equations (4) and
	// (5) when sustained rate divergence is detected and drops dead
	// nodes from the schedule. Injectors are stateful — build a fresh
	// one per run. Incompatible with Functional.
	Faults *fault.Injector
	// Metrics, when non-nil, receives live core_* observability samples
	// (repartition counts by reason, live-node gauge). Publishing never
	// changes simulated results.
	Metrics *obs.Registry
}

// LUResult extends Result with the LU-specific configuration and the
// per-iteration latencies (Figure 6 reads iteration 0).
type LUResult struct {
	Result
	// BF and BP are the stripe row split, L the panel pipeline depth,
	// K the PE count.
	BF, BP, L, K int
	// IterationSeconds is each outer iteration's latency.
	IterationSeconds []float64
	// Model is the cost-model instance behind the partition.
	Model model.LUParams
	// Prediction is the Section 4.5 closed-form forecast at the split.
	Prediction model.Prediction
}

// luJob is one b×b block multiplication A'_uv = L10_u × U01_v (or
// L_u,t × L_v,tᵀ for a symmetric update) distributed over the p-1
// compute nodes.
type luJob struct {
	t, u, v int
	e       *matrix.Dense // functional accumulator (nil when timing-only)
	arrived int           // result slices delivered to the opMS owner
}

// luSentinel ends iteration t's job stream for a compute node.
type luSentinel struct{ t int }

// luIter carries per-iteration coordination state.
type luIter struct {
	pending int // opMS operations outstanding
	done    *sim.Signal
	bar     *sim.Barrier
	// panel is the node running this iteration's panel operations.
	panel int
	// members are the nodes participating (sorted); nil means all of
	// them (the static, fault-free schedule).
	members []int
}

// isMember reports whether node me participates in the iteration.
func (it *luIter) isMember(me int) bool {
	if it.members == nil {
		return true
	}
	for _, m := range it.members {
		if m == me {
			return true
		}
	}
	return false
}

// count returns the participant count (p when members is nil).
func (it *luIter) count(p int) int {
	if it.members == nil {
		return p
	}
	return len(it.members)
}

// first returns the lowest participating node (the iteration-latency
// recorder).
func (it *luIter) first() int {
	if it.members == nil {
		return 0
	}
	return it.members[0]
}

// factorization is what sets one lu-family factorization apart on the
// shared panel/opMM/opMS pipeline (Section 5.1.3): its registry row,
// model half and simulation label, the names of its engine objects and
// tasks, and whether its trailing update is symmetric. The names are
// constant formats and prefixes, so naming an object costs no more than
// the name itself.
type factorization struct {
	app   *App
	half  luFamily
	label string
	// boxes, done and bar format the node job mailboxes and each
	// iteration's done-signal and barrier; fpga and opms prefix the
	// FPGA job and opMS update task names.
	boxes, done, bar string
	fpga, opms       string
	// symmetric is Cholesky's update of a symmetric matrix (A = L·Lᵀ):
	// the panel factors the diagonal block (opPOTRF, half of opLU's
	// flops) and solves each panel block once (opTRSM instead of the
	// opL/opU pair), only the lower triangle's jobs exist, a diagonal
	// job (opSYRK) costs half an opMM and updates with Syrk, and the
	// right operand of job (u, v) is L_v,tᵀ instead of U_t,v.
	symmetric bool
}

// The lu family's pipelined factorizations.
var (
	luFactorization = factorization{app: &luApp, half: luHalf, label: "lu",
		boxes: "lu.jobs%d", done: "lu.iter%d.done", bar: "lu.iter%d.bar", fpga: "lu.fpga", opms: "lu.opms"}
	cholFactorization = factorization{app: &cholApp, half: cholHalf, label: "cholesky",
		boxes: "chol.jobs%d", done: "chol.iter%d.done", bar: "chol.iter%d.bar", fpga: "chol.fpga", opms: "chol.opms",
		symmetric: true}
)

// luRun bundles everything the node processes need.
type luRun struct {
	f      factorization
	cfg    LUConfig
	sys    *machine.System
	lp     model.LUParams
	nb     int
	bf, bp int
	l      int

	// per-job charge model (seconds / cycles)
	charge jobCharge
	// alt, when non-nil, charges odd jobs (whole-task ablation).
	alt *jobCharge

	boxes []*sim.Mailbox
	iters []*luIter

	a *matrix.Dense // functional matrix (nil when timing-only)

	// cyc is the block distribution, cached off the forwardResult hot
	// path.
	cyc dist.Cyclic
	// gemmRate is the processor's full-rate dgemm throughput, kept so
	// charges can be rebuilt after a repartition.
	gemmRate float64

	// Degraded-mode state, used only when inj is non-nil.
	inj    *fault.Injector
	lpLive model.LUParams // lp with P tracking the live node count
	live   []int          // currently live nodes, sorted
	dyn    map[int]*luIter
	// tracker decides when observed rates have diverged enough to
	// re-solve the partition.
	tracker      *faultTracker
	repartitions []Repartition
	failure      error
}

func (lr *luRun) blk(u, v int) *matrix.Dense {
	b := lr.cfg.B
	return lr.a.View(u*b, v*b, b, b)
}

// computeNodes lists the nodes that perform opMM in iteration it
// (every participant but the panel node).
func (lr *luRun) computeNodes(it *luIter) []int {
	if it.members == nil {
		p := lr.sys.Cfg.Nodes
		out := make([]int, 0, p-1)
		for i := 0; i < p; i++ {
			if i != it.panel {
				out = append(out, i)
			}
		}
		return out
	}
	out := make([]int, 0, len(it.members)-1)
	for _, i := range it.members {
		if i != it.panel {
			out = append(out, i)
		}
	}
	return out
}

// luGeometry is the lu family's geometry check: a panel node plus at
// least one compute node, b dividing n, and b a multiple of both the
// p-1 compute nodes and the k-PE stripe width (Section 6.1).
func luGeometry(name string) func(nodes, n, b, k int) error {
	return func(p, n, b, k int) error {
		switch {
		case p < 2:
			return fmt.Errorf("%s needs p >= 2, got %d", name, p)
		case n <= 0 || b <= 0 || n%b != 0:
			return fmt.Errorf("block size %d must divide n=%d", b, n)
		case b%(p-1) != 0:
			return fmt.Errorf("block size %d must be a multiple of p-1=%d", b, p-1)
		case b%k != 0:
			return fmt.Errorf("block size %d must be a multiple of k=%d", b, k)
		}
		return nil
	}
}

// luFamily is the model half lu, chol and qr share: LUModel, the Eq. 4
// stripe split bf, the Eq. 5 pipeline depth l when the app pipelines
// its panel, and the app's Section 4.5 prediction at bf.
type luFamily struct {
	// pipelined reports that the app reads l (lu, chol).
	pipelined bool
	// predict forecasts an n×n run at stripe split bf.
	predict func(lp model.LUParams, n, bf int) model.Prediction
}

// The lu family's model halves.
var (
	luHalf   = luFamily{pipelined: true, predict: model.LUParams.PredictLU}
	cholHalf = luFamily{pipelined: true, predict: predictChol}
	qrHalf   = luFamily{predict: predictQR}
)

// model prices q: the parameters, the split and the prediction.
func (f luFamily) model(q Pricing) (model.LUParams, Priced, error) {
	lp := LUModel(q.Machine, q.Proc, q.B, q.K, q.Ff, q.Bd)
	var pr Priced
	if err := lp.Validate(); err != nil {
		return lp, pr, err
	}
	bf, err := SolveShare(q.Mode, "bf", q.BF, q.B, func() (int, int) {
		return pr.solve(q.Memo, PartitionSolve{Kind: "lu.bf", Params: lp})
	})
	if err != nil {
		return lp, pr, err
	}
	pr.Split = Split{BF: bf, BP: q.B - bf}
	if f.pipelined {
		pr.Split.L = q.L
		if q.L < 0 {
			pr.Split.L, _ = pr.solve(q.Memo, PartitionSolve{Kind: "lu.l", Params: lp, Arg: bf})
		}
	}
	pr.Prediction = f.predict(lp, q.N, bf)
	pr.Binding, pr.Margin = lp.StripeBinding(bf)
	return lp, pr, nil
}

// RunLU builds the machine, derives the partition from the design
// model, simulates the full distributed factorization and returns the
// measured results.
func RunLU(cfg LUConfig) (*LUResult, error) {
	res, a, ref, err := luFactorization.run(cfg)
	if err == nil && a != nil {
		res.Checked, res.MaxResidual = true, a.MaxDiff(ref)
	}
	return res, err
}

// run is every lu-family factorization's prologue: the row's start, the
// model split, the per-job charges, the functional input and its
// sequential reference, and the iteration state. It then simulates the
// factorization and returns its result with the factored matrix and
// the reference (both nil when timing-only).
func (f factorization) run(cfg LUConfig) (*LUResult, *matrix.Dense, *matrix.Dense, error) {
	m, err := f.app.start(Spec{Machine: cfg.Machine, N: cfg.N, B: cfg.B, PEs: cfg.PEs, Mode: cfg.Mode,
		Functional: cfg.Functional, Observer: cfg.Observer, Telemetry: cfg.Telemetry, Faults: cfg.Faults}, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, q := m.sys, m.q
	p := q.Machine.Nodes
	q.BF, q.L = cfg.BF, cfg.L
	lp, pr, err := f.half.model(q)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: %w", err)
	}
	bf, l := pr.Split.BF, pr.Split.L

	lr := &luRun{f: f, cfg: cfg, sys: sys, lp: lp, nb: cfg.N / cfg.B, bf: bf, bp: cfg.B - bf, l: l}
	lr.cyc, err = dist.CheckedCyclic(lr.nb, p)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: %w", err)
	}
	lr.gemmRate = q.Proc.Rate(cpu.DGEMM)
	lr.lpLive = lp
	if cfg.Faults != nil {
		lr.inj = cfg.Faults
		lr.dyn = make(map[int]*luIter)
		lr.tracker = newFaultTracker(cfg.Faults)
		lr.live = make([]int, p)
		for i := range lr.live {
			lr.live[i] = i
		}
	}
	lr.chargeModel()

	// Functional state and reference.
	var ref *matrix.Dense
	if cfg.Functional {
		rng := rand.New(rand.NewSource(cfg.Seed))
		factor := matrix.BlockLU
		if f.symmetric {
			lr.a, factor = matrix.RandomSPD(cfg.N, rng), matrix.BlockCholesky
		} else {
			lr.a = matrix.RandomDiagDominant(cfg.N, rng)
		}
		ref = lr.a.Clone()
		if err := factor(ref, cfg.B); err != nil {
			return nil, nil, nil, fmt.Errorf("core: reference factorization: %w", err)
		}
	}

	// Coordination structures. Under fault injection the per-iteration
	// state is created lazily at each iteration boundary instead, so
	// membership can shrink as nodes die (the construction itself
	// schedules no engine events, so an injector with no faults stays
	// byte-identical to this eager path).
	for i := 0; i < p; i++ {
		lr.boxes = append(lr.boxes, sim.NewMailbox(sys.Eng, fmt.Sprintf(f.boxes, i)))
	}
	if lr.inj == nil {
		for t := 0; t < lr.nb; t++ {
			lr.iters = append(lr.iters, lr.newIter(t, nil))
		}
	}

	res, err := lr.execute(&m)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, lr.a, ref, nil
}

// newIter builds iteration t's coordination state over members (nil:
// every node, the static schedule). Its done-signal fires once all of
// the iteration's opMS updates have run: rem² of them, or the
// rem·(rem+1)/2 of the lower triangle for a symmetric update.
func (lr *luRun) newIter(t int, members []int) *luIter {
	rem := lr.nb - 1 - t
	jobs := rem * rem
	if lr.f.symmetric {
		jobs = rem * (rem + 1) / 2
	}
	nodes, panel := lr.sys.Cfg.Nodes, t%lr.sys.Cfg.Nodes
	if members != nil {
		nodes, panel = len(members), members[t%len(members)]
	}
	it := &luIter{
		pending: jobs,
		done:    sim.NewSignal(lr.sys.Eng, fmt.Sprintf(lr.f.done, t)),
		bar:     sim.NewBarrier(lr.sys.Eng, fmt.Sprintf(lr.f.bar, t), nodes),
		panel:   panel,
		members: members,
	}
	if it.pending == 0 {
		it.done.Fire()
	}
	return it
}

// jobCharge is the per-opMM cost model on one compute node.
type jobCharge struct {
	cpuRecv, cpuDMA, cpuGemm float64
	fpgaCycles               float64
	fpgaLag                  float64
	// dmaBytes is the operand volume the cpuDMA charge streams to the
	// FPGA, for telemetry byte accounting.
	dmaBytes int64
}

// scaled is c for a job s times the work of c's: every charge, the FPGA
// cycles and the operand bytes scale by s; the FPGA's start lag does
// not.
func (c jobCharge) scaled(s float64) jobCharge {
	c.cpuRecv *= s
	c.cpuDMA *= s
	c.dmaBytes = int64(s * float64(c.dmaBytes))
	c.cpuGemm *= s
	c.fpgaCycles *= s
	return c
}

// cpuCharges appends c's processor share, in order, to buf: unpack the
// operand messages (no bytes: the wire span already counted the
// payload), stream the FPGA's operands to it (the DMA charge carries
// their volume), then run the software half of the multiply. Zero
// charges are left out.
func (c jobCharge) cpuCharges(buf []sim.Charge) []sim.Charge {
	if c.cpuRecv > 0 {
		buf = append(buf, sim.Charge{Cat: sim.CatNetwork, Dt: c.cpuRecv})
	}
	if c.cpuDMA > 0 {
		buf = append(buf, sim.Charge{Cat: sim.CatDMA, Bytes: c.dmaBytes, Dt: c.cpuDMA})
	}
	if c.cpuGemm > 0 {
		buf = append(buf, sim.Charge{Cat: sim.CatCompute, Dt: c.cpuGemm})
	}
	return buf
}

// chargeModel derives the per-job costs from the machine parameters.
// It reads lpLive (nominal rates, live node count) and bf, so a
// repartition rebuilds the charges by calling it again — always from
// the NOMINAL parameters: the physical slowdown is applied once, by the
// dilation hooks, at charge time.
func (lr *luRun) chargeModel() {
	charge := func(bf int) jobCharge {
		return opmmCharge(lr.lpLive, lr.gemmRate, bf, lr.cfg.DisableStripeOverlap)
	}
	switch lr.cfg.Mode {
	case ProcessorOnly:
		lr.charge = charge(0)
	case FPGAOnly:
		lr.charge = charge(lr.cfg.B)
	default:
		if lr.cfg.WholeTaskOpMM {
			// Ablation: alternate whole jobs between the resources.
			lr.charge = charge(lr.cfg.B)
			alt := charge(0)
			lr.alt = &alt
		} else {
			lr.charge = charge(lr.bf)
		}
	}
}

// opmmCharge is the per-job cost of one opMM — a whole b×b block
// multiplication over lp's p-1 compute nodes, b = lp.B in b/k stripes —
// at FPGA row split bf, with the processor's full dgemm rate gemmRate
// for an all-software job. Stripe-level pipelining is aggregated (the
// stripe-granular view is simulated by RunOpMM for Figure 5): the FPGA
// waits for the first stripe's transfer, or for every stripe's under
// noOverlap (the DisableStripeOverlap ablation).
func opmmCharge(lp model.LUParams, gemmRate float64, bf int, noOverlap bool) jobCharge {
	st := lp.B / lp.K
	stripes := float64(st)
	_, tp, tmem, tcomm := lp.StripeTimes(bf)

	var c jobCharge
	c.cpuRecv = stripes * tcomm // message unpack
	if bf == 0 {
		// All software: one square-ish dgemm at the full library rate;
		// no DMA, no FPGA.
		b := float64(lp.B)
		c.cpuGemm = 2 * b * b * b / (float64(lp.P-1) * gemmRate)
		return c
	}
	// The array's bf rows of every stripe against this node's b/(p-1)
	// result columns, and the processor's rest (none at bf = b).
	d := fpga.MatMulDesign{K: lp.K}
	c.cpuDMA = stripes * tmem
	c.cpuGemm = stripes * tp
	c.fpgaCycles = d.StripeCycles(st, bf, lp.B, lp.P-1)
	c.dmaBytes = int64(d.StripeWords(st, bf, lp.B, lp.P-1)) * machine.WordBytes
	if noOverlap {
		c.fpgaLag = stripes*tcomm + c.cpuDMA
	} else {
		c.fpgaLag = tcomm + c.cpuDMA/stripes // first stripe only
	}
	return c
}

// chargeFor selects the charge set for a job: the whole-task ablation
// alternates by job parity, and an opSYRK job costs half an opMM.
func (lr *luRun) chargeFor(j *luJob) jobCharge {
	switch {
	case lr.alt != nil && (j.u+j.v)%2 == 1:
		return *lr.alt
	case lr.syrk(j):
		return lr.charge.scaled(0.5)
	}
	return lr.charge
}

// syrk reports that j is a diagonal job of a symmetric update (opSYRK):
// one panel block's operands, half the arithmetic, half the result.
func (lr *luRun) syrk(j *luJob) bool { return lr.f.symmetric && j.u == j.v }

// iter returns iteration t's coordination state — pre-built on the
// fault-free path, created lazily at the iteration boundary in degraded
// mode (where membership may have shrunk). Returns nil once the run has
// failed (too few live nodes).
func (lr *luRun) iter(t int) *luIter {
	if lr.inj == nil {
		return lr.iters[t]
	}
	if it, ok := lr.dyn[t]; ok {
		return it
	}
	if lr.failure != nil {
		return nil
	}
	now := lr.sys.Eng.Now()
	lr.maybeRepartition(now, t)
	if lr.failure != nil {
		return nil
	}
	it := lr.newIter(t, lr.live)
	lr.dyn[t] = it
	return it
}

// maybeRepartition runs once per iteration boundary (first process to
// arrive): it refreshes the live set, samples the divergence tracker,
// and re-solves the partition when a node died or the observed rates
// diverged from the ones the current partition was solved against.
func (lr *luRun) maybeRepartition(now float64, t int) {
	live := make([]int, 0, len(lr.live))
	for _, i := range lr.live {
		if lr.inj.Alive(i, now) {
			live = append(live, i)
		}
	}
	died := len(live) < len(lr.live)
	if died {
		if len(live) < 2 {
			lr.failure = fmt.Errorf("core: lu iteration %d: %d node(s) alive at t=%gs, need >= 2 (panel + compute)",
				t, len(live), now)
			return
		}
		lr.live = live
		lr.lpLive.P = len(live)
	}
	d, fire := lr.tracker.sample(now)
	if !died && !fire {
		return
	}
	if !fire {
		// Death without a divergence trigger: re-solve against the
		// factors the current partition already assumes.
		d = lr.tracker.estimate()
	}
	lr.applyRepartition(now, t, d, died)
}

// applyRepartition re-solves Equations (4)/(5) against the degraded
// live parameters and rebuilds the per-job charges from the nominal
// ones. Partition knobs the caller pinned (BF/L >= 0) stay pinned.
func (lr *luRun) applyRepartition(now float64, t int, d model.Degradation, died bool) {
	if lr.cfg.Mode == Hybrid && !lr.cfg.WholeTaskOpMM && lr.cfg.BF < 0 {
		lr.bf, lr.bp = lr.lpLive.Degraded(d).SolvePartition()
	}
	if lr.cfg.L < 0 {
		lr.l = lr.lpLive.Degraded(d).SolveL(lr.bf)
	}
	lr.chargeModel()
	reason := "divergence"
	if died {
		reason = "node-death"
	}
	lr.repartitions = append(lr.repartitions, Repartition{
		Time: now, Iteration: t, Reason: reason, Live: len(lr.live),
		BF: lr.bf, BP: lr.bp, L: lr.l, Factors: d.Normalized(),
	})
	recordRepartition(lr.cfg.Metrics, reason, len(lr.live))
}

// execute spawns the node programs, runs the simulation, and assembles
// the results.
func (lr *luRun) execute(m *machineRun) (*LUResult, error) {
	sys := lr.sys
	p := sys.Cfg.Nodes
	iterEnd := make([]float64, lr.nb)

	for i := 0; i < p; i++ {
		node := sys.Nodes[i]
		me := i
		sys.Eng.Go(fmt.Sprintf("node%d.cpu", me), func(pr *sim.Proc) {
			for t := 0; t < lr.nb; t++ {
				it := lr.iter(t)
				if it == nil || !it.isMember(me) {
					// Run failed, or this node died at the iteration
					// boundary (fail-stop): leave the schedule.
					return
				}
				if me == it.panel {
					lr.runPanel(pr, node, t, it)
				} else {
					lr.runCompute(pr, node, me, t, it)
				}
				it.done.Wait(pr)
				it.bar.Arrive(pr)
				if me == it.first() {
					iterEnd[t] = pr.Now()
				}
			}
		})
	}

	n := float64(lr.cfg.N)
	flops := 2.0 / 3.0 * n * n * n
	if lr.f.symmetric {
		flops = n * n * n / 3
	}
	res := &LUResult{Result: Result{App: lr.f.app.Name, Mode: lr.cfg.Mode, N: lr.cfg.N, B: lr.cfg.B}}
	if err := m.finish(lr.f.label, flops, &res.Result); err != nil {
		return nil, err
	}
	if lr.failure != nil {
		return nil, lr.failure
	}
	res.BF, res.BP, res.L, res.K = lr.bf, lr.bp, lr.l, lr.lp.K
	res.Model = lr.lp
	// At the final split: a fault injector may have re-solved it.
	res.Prediction = lr.f.half.predict(lr.lp, lr.cfg.N, lr.bf)
	prev := 0.0
	for _, t := range iterEnd {
		res.IterationSeconds = append(res.IterationSeconds, t-prev)
		prev = t
	}
	if lr.inj != nil {
		res.Repartitions = lr.repartitions
		res.DeadNodes = lr.inj.DeadBy(res.Seconds)
	}
	return res, nil
}

// runPanel is iteration t on the panel node: opLU, then the opL/opU
// sequence (opPOTRF, then one opTRSM per panel block, for a symmetric
// update), releasing opMM jobs to the compute nodes l at a time
// (Equation 5's pipeline).
func (lr *luRun) runPanel(pr *sim.Proc, node *machine.Node, t int, it *luIter) {
	b := lr.cfg.B
	nb := lr.nb
	sym := lr.f.symmetric
	dsts := lr.computeNodes(it)
	pr.SetPhase("panel")
	defer pr.SetPhase("")

	// opLU, or opPOTRF at half its (2/3)b³ flops, both at the
	// factorization routine rate.
	op, flops, factor, solve := "opLU", cpu.DgetrfFlops(b), matrix.LU, matrix.TrsmUpperRight
	if sym {
		op, flops, factor, solve = "opPOTRF", flops/2, matrix.Cholesky, matrix.TrsmRightLowerT
	}
	node.ComputeCPU(pr, cpu.DGETRF, flops)
	if lr.a != nil {
		if err := factor(lr.blk(t, t)); err != nil {
			panic(fmt.Sprintf("%s iteration %d: %v", op, t, err))
		}
	}

	var ready []*luJob
	var inFlight []*sim.Signal
	send := func(limit int) {
		for limit != 0 && len(ready) > 0 {
			j := ready[0]
			ready = ready[1:]
			if s := lr.sendJob(pr, node, t, j, dsts); s != nil {
				inFlight = append(inFlight, s)
			}
			if limit > 0 {
				limit--
			}
		}
	}

	for c := t + 1; c < nb; c++ {
		// opL (opTRSM for a symmetric update) on block (c, t).
		node.ComputeCPU(pr, cpu.DTRSM, cpu.DtrsmFlops(b))
		if lr.a != nil {
			solve(lr.blk(t, t), lr.blk(c, t))
		}
		if !sym {
			send(lr.l)
			// opU on block (t, c).
			node.ComputeCPU(pr, cpu.DTRSM, cpu.DtrsmFlops(b))
			if lr.a != nil {
				matrix.TrsmLowerUnitLeft(lr.blk(t, t), lr.blk(t, c))
			}
		}
		// Jobs whose operands are now both available: max(u,v) == c,
		// only v <= c for a symmetric update's lower triangle.
		for v := t + 1; v <= c; v++ {
			ready = append(ready, lr.newJob(t, c, v))
		}
		if !sym {
			for u := t + 1; u < c; u++ {
				ready = append(ready, lr.newJob(t, u, c))
			}
		}
		send(lr.l)
	}
	send(-1) // drain whatever the pipeline did not cover
	// With asynchronous sends, the sentinel must not overtake job
	// deliveries still on the wire.
	for _, s := range inFlight {
		s.Wait(pr)
	}
	for _, dst := range dsts {
		lr.boxes[dst].Put(luSentinel{t: t})
	}
}

// newJob is the job A'_uv of iteration t, with a functional
// accumulator unless it is timing-only or an opSYRK, which the owner
// applies straight from the panel block.
func (lr *luRun) newJob(t, u, v int) *luJob {
	j := &luJob{t: t, u: u, v: v}
	if lr.a != nil && !lr.syrk(j) {
		j.e = matrix.New(lr.cfg.B, lr.cfg.B)
	}
	return j
}

// sendJob multicasts one job's operand stripes (2b² words, b² for an
// opSYRK) to the compute nodes and enqueues the job. With
// InterruptibleRoutines the send proceeds asynchronously (the ablation
// of the atomic-routine serialization the paper blames for its 86%
// prediction ratio) and a completion signal is returned so the caller
// can drain before sending the iteration sentinel.
func (lr *luRun) sendJob(pr *sim.Proc, node *machine.Node, t int, j *luJob, dsts []int) *sim.Signal {
	bytes := 2 * lr.cfg.B * lr.cfg.B * machine.WordBytes
	if lr.syrk(j) {
		bytes /= 2
	}
	if lr.cfg.InterruptibleRoutines {
		src := node.ID
		done := sim.NewSignal(lr.sys.Eng, sim.Name("lu.sent", t, j.u, j.v))
		lr.sys.Eng.Go(sim.Name("lu.send", t, j.u, j.v), func(sp *sim.Proc) {
			sp.SetPhase("broadcast")
			lr.sys.Fab.Multicast(sp, src, dsts, bytes)
			lr.deliver(j, dsts)
			done.Fire()
		})
		return done
	}
	prevPhase := pr.Phase()
	pr.SetPhase("broadcast")
	lr.sys.Fab.Multicast(pr, node.ID, dsts, bytes)
	pr.SetPhase(prevPhase)
	lr.deliver(j, dsts)
	return nil
}

// deliver enqueues j on every compute node in dsts.
func (lr *luRun) deliver(j *luJob, dsts []int) {
	for _, dst := range dsts {
		lr.boxes[dst].Put(j)
	}
}

// runCompute is iteration t on a compute node: process the job stream —
// FPGA share launched first, CPU share meanwhile — then scatter the
// result slice to the opMS owner.
func (lr *luRun) runCompute(pr *sim.Proc, node *machine.Node, me, t int, it *luIter) {
	cn := lr.computeNodes(it)
	ci := 0
	for idx, n := range cn {
		if n == me {
			ci = idx
		}
	}
	w := lr.cfg.B / len(cn) // result columns per node
	pr.SetPhase("opmm")
	defer pr.SetPhase("")
	for {
		msg := lr.boxes[me].Get(pr)
		if s, ok := msg.(luSentinel); ok {
			if s.t != t {
				panic(fmt.Sprintf("core: node %d got sentinel for iteration %d during %d", me, s.t, t))
			}
			return
		}
		j := msg.(*luJob)
		ch := lr.chargeFor(j)

		var done *sim.Signal
		if ch.fpgaCycles > 0 {
			done = node.Accel.Job(sim.Name(lr.f.fpga, t, j.u, j.v, me), "opmm", ch.fpgaLag, ch.fpgaCycles)
		}
		// CPU share, its charges fused into one engine park.
		var seq [3]sim.Charge
		node.ChargeCPUSeq(pr, ch.cpuCharges(seq[:0]))
		if j.e != nil {
			// Functional: this node produces its column slice of
			// E = L10_u × U01_v, or L_u,t × L_v,tᵀ for a symmetric
			// update (both the CPU's bp rows and the FPGA's bf rows —
			// the arithmetic is identical).
			eSlice := j.e.View(0, ci*w, lr.cfg.B, w)
			dSlice := lr.operand(j).View(0, ci*w, lr.cfg.B, w)
			matrix.Gemm(1, lr.blk(j.u, j.t), dSlice, 0, eSlice)
		}
		if done != nil {
			node.Accel.AwaitDone(pr, done)
		}
		lr.forwardResult(pr, me, t, j, it)
	}
}

// operand is job j's right factor: U_t,v, or L_v,tᵀ for a symmetric
// update.
func (lr *luRun) operand(j *luJob) *matrix.Dense {
	if lr.f.symmetric {
		return lr.blk(j.v, j.t).Transpose()
	}
	return lr.blk(j.t, j.v)
}

// forwardResult sends this node's slice of the job result to the opMS
// owner (t” = max{u,v} in the paper's data distribution) and, once all
// slices arrive, schedules the subtraction on the owner's processor
// (half an opMS for an opSYRK, a rank-b update of the lower triangle).
// A dead owner's update is remapped onto a surviving node.
func (lr *luRun) forwardResult(pr *sim.Proc, me, t int, j *luJob, it *luIter) {
	p := lr.sys.Cfg.Nodes
	owner := lr.cyc.UpdateOwner(j.u, j.v)
	if it.members != nil && !it.isMember(owner) {
		owner = it.members[owner%len(it.members)]
	}
	nc := it.count(p) - 1 // compute nodes contributing a slice
	sliceBytes := lr.cfg.B * lr.cfg.B / nc * machine.WordBytes
	if lr.syrk(j) {
		sliceBytes /= 2
	}
	prevPhase := pr.Phase()
	pr.SetPhase("scatter")
	lr.sys.Fab.Transfer(pr, me, owner, sliceBytes)
	pr.SetPhase(prevPhase)
	j.arrived++
	if j.arrived < nc {
		return
	}
	// Last slice in: run opMS on the owner's processor.
	ownerNode := lr.sys.Nodes[owner]
	b := lr.cfg.B
	unpack := float64(b*b*machine.WordBytes) / lr.lp.Bn
	sub := cpu.SubtractFlops(b)
	if lr.syrk(j) {
		unpack /= 2
		sub /= 2
	}
	ownerNode.CPUTask(sim.Name(lr.f.opms, t, j.u, j.v), "opms", []sim.Charge{
		{Cat: sim.CatNetwork, Dt: unpack},
		{Cat: sim.CatCompute, Dt: ownerNode.Proc.Time(cpu.Subtract, sub)},
	}, func() {
		switch {
		case lr.syrk(j) && lr.a != nil:
			matrix.Syrk(lr.blk(j.u, j.t), lr.blk(j.u, j.u))
		case j.e != nil:
			lr.blk(j.u, j.v).Sub(j.e)
		}
		it.pending--
		if it.pending == 0 {
			it.done.Fire()
		}
	})
}
