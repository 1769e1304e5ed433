package sweep

import (
	"fmt"
	"sync"

	"codesign/internal/analysis"
	"codesign/internal/cache"
	"codesign/internal/core"
	"codesign/internal/cpu"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/model"
	"codesign/internal/trace"
)

// Outcome is the evaluation of one design point. OK distinguishes
// evaluated points from infeasible ones (a design that does not fit
// the device, a block size violating a divisibility constraint):
// infeasible points stay in the result set with Err describing why, so
// a sweep documents the feasible region as well as the frontier.
type Outcome struct {
	// OK reports whether the point evaluated; when false only Err is
	// meaningful.
	OK bool `json:"ok"`
	// Err describes why an infeasible point could not be evaluated.
	Err string `json:"err,omitempty"`

	// K is the resolved PE count; Of the design's flops per cycle
	// (2K for both PE arrays); FfMHz the post-place-and-route clock.
	K int `json:"k,omitempty"`
	// Of is the design's floating-point operations per FPGA cycle.
	Of int `json:"of,omitempty"`
	// FfMHz is the placed design clock in MHz (the model's Ff).
	FfMHz float64 `json:"ff_mhz,omitempty"`

	// Slices, BlockRAMs and Multipliers are the placed design's FPGA
	// resource consumption — the budget axis of the Pareto frontier.
	Slices int `json:"slices,omitempty"`
	// BlockRAMs is the 18 kb block RAM usage.
	BlockRAMs int `json:"brams,omitempty"`
	// Multipliers is the embedded 18x18 multiplier usage.
	Multipliers int `json:"mults,omitempty"`
	// BdGBps is the effective FPGA-DRAM streaming demand in GB/s —
	// min(raw path, one word per design cycle), the bandwidth axis of
	// the Pareto frontier.
	BdGBps float64 `json:"bd_gbps,omitempty"`

	// BF and BP are the resolved stripe row split (LU/MM).
	BF int `json:"bf,omitempty"`
	// BP is the processor's rows of the split.
	BP int `json:"bp,omitempty"`
	// L is the resolved LU panel pipeline depth (Eq. 5).
	L int `json:"l,omitempty"`
	// L1 and L2 are the resolved FW whole-task split (Eq. 6).
	L1 int `json:"l1,omitempty"`
	// L2 is the FPGA's share of the FW split.
	L2 int `json:"l2,omitempty"`

	// GFLOPS is the point's headline throughput: measured under
	// MethodSim, model-predicted under MethodModel. The Pareto
	// frontier maximizes it.
	GFLOPS float64 `json:"gflops,omitempty"`
	// Seconds is the corresponding latency.
	Seconds float64 `json:"seconds,omitempty"`
	// PredictedGFLOPS is the Section 4.5 prediction (always present,
	// also under MethodSim, where GFLOPS/PredictedGFLOPS is the
	// prediction-accuracy ratio of Section 6.2).
	PredictedGFLOPS float64 `json:"pred_gflops,omitempty"`
	// OverlapEfficiency is the telemetry overlap efficiency (MethodSim
	// only): the fraction of data-movement time hidden behind compute.
	OverlapEfficiency float64 `json:"overlap_eff,omitempty"`

	// Binding names the model parameter that binds the design's
	// dominant phase (Of*Ff, Op*Fp, Bd or Bn): analytic under
	// MethodModel, measured via the internal/analysis classifier under
	// MethodSim. Margin is the normalized imbalance (0 = balanced).
	Binding string `json:"binding,omitempty"`
	// Margin is the binding's normalized imbalance.
	Margin float64 `json:"margin,omitempty"`

	// Pareto marks the point as non-dominated on
	// (GFLOPS up, Slices down, BdGBps down) among the sweep's OK
	// points.
	Pareto bool `json:"pareto,omitempty"`
}

// Stats counts the work a sweep did, including how often the memoized
// place-and-route and partition solvers were shared between points.
type Stats struct {
	// Points is the grid size; Errors the infeasible subset.
	Points int `json:"points"`
	// Errors counts infeasible points.
	Errors int `json:"errors"`
	// PlaceLookups / PlaceSolves count pseudo place-and-route cache
	// traffic: lookups - solves placements were reused.
	PlaceLookups int `json:"place_lookups"`
	// PlaceSolves counts distinct placements actually solved.
	PlaceSolves int `json:"place_solves"`
	// PartitionLookups / PartitionSolves count Eq. 1/4/5/6 solver cache
	// traffic.
	PartitionLookups int `json:"partition_lookups"`
	// PartitionSolves counts distinct partition solves.
	PartitionSolves int `json:"partition_solves"`
	// ResolveLookups / ResolveSolves count largest-fitting-PE-array
	// resolutions (the place-and-route search behind PEs=0 points):
	// lookups - solves were reused across neighboring grid points.
	ResolveLookups int `json:"resolve_lookups"`
	// ResolveSolves counts distinct PE-array resolutions actually
	// searched.
	ResolveSolves int `json:"resolve_solves"`
}

// placeKey identifies one pseudo place-and-route problem.
type placeKey struct {
	design string
	k      int
	device string
}

// placeVal is a memoized placement (or its failure).
type placeVal struct {
	usage  fpga.Usage
	freqHz float64
	err    string
}

// partKey identifies one closed-form partition solve. params holds the
// comparable model parameter struct (LUParams/FWParams/MMParams); kind
// distinguishes the equation; arg carries the extra scalar some solves
// need (bf for Eq. 5, n for Eq. 6).
type partKey struct {
	kind   string
	params interface{}
	arg    int
}

// partVal is a memoized partition solution (two ints cover every
// solver: bf/bp, l/-, l1/l2).
type partVal struct {
	a, b int
}

// resolveKey identifies one largest-fitting-PE-array search (the
// PEs=0 sentinel resolution). Together with placeKey and partKey it
// forms the structured per-stage key family behind incremental
// evaluation: two grid points that differ in one axis share every
// stage whose key does not mention that axis, so a neighbor is
// delta-evaluated instead of re-derived. The key deliberately omits
// every axis the search does not depend on — app family (not app:
// lu and mm share the matmul array), device, and the block size only
// for FW, whose array must divide the block.
type resolveKey struct {
	family string
	device string
	b      int
}

// evaluator carries the memo caches behind one or more sweeps. Run
// builds a fresh unbounded one per call unless Options.Evaluator
// shares a long-lived instance (the codesignd serving path); either
// way each distinct placement or partition is solved exactly once per
// evaluator, so results stay deterministic.
type evaluator struct {
	place *cache.LRU[placeKey, placeVal]
	part  *cache.LRU[partKey, partVal]
	maxk  *cache.LRU[resolveKey, int]

	mu    sync.Mutex
	stats Stats
}

// recs recycles span recorders across MethodSim grid points, process
// wide: every evaluator — a per-call Run's, the long-lived serving one,
// a screened sweep's — checks recorders out with recorder and measured
// returns them, so workers reuse warmed span buffers instead of
// regrowing one per simulation or per sweep.
var recs = sync.Pool{New: func() any { return trace.NewRecorder() }}

// newEvaluator builds an evaluator whose memo caches hold at most
// bound entries each (0 = unbounded, the per-sweep mode).
func newEvaluator(bound int) *evaluator {
	return &evaluator{
		place: cache.NewLRU[placeKey, placeVal](bound),
		part:  cache.NewLRU[partKey, partVal](bound),
		maxk:  cache.NewLRU[resolveKey, int](bound),
	}
}

// statsDelta returns the evaluator's cumulative stats minus a prior
// snapshot — the traffic attributable to one run when the evaluator
// is shared.
func (ev *evaluator) statsDelta(before Stats) Stats {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	s := ev.stats
	s.PlaceLookups -= before.PlaceLookups
	s.PlaceSolves -= before.PlaceSolves
	s.PartitionLookups -= before.PartitionLookups
	s.PartitionSolves -= before.PartitionSolves
	s.ResolveLookups -= before.ResolveLookups
	s.ResolveSolves -= before.ResolveSolves
	return s
}

// recorder checks out a reset span recorder from the pool.
func recorder() *trace.Recorder {
	rec := recs.Get().(*trace.Recorder)
	rec.Reset()
	return rec
}

// placed returns the memoized pseudo place-and-route solution for the
// design on the device. The compute happens under the cache lock
// (cache.LRU.GetOrCompute), so each distinct placement is solved
// exactly once per evaluator no matter how many workers race for it.
func (ev *evaluator) placed(d fpga.Design, dev fpga.Device) (placeVal, error) {
	key := placeKey{design: d.Name(), k: d.PEs(), device: dev.Name}
	v, computed := ev.place.GetOrCompute(key, func() placeVal {
		p, err := fpga.Place(d, dev)
		if err != nil {
			return placeVal{err: err.Error()}
		}
		return placeVal{usage: d.Resources(), freqHz: p.FreqHz}
	})
	ev.mu.Lock()
	ev.stats.PlaceLookups++
	if computed {
		ev.stats.PlaceSolves++
	}
	ev.mu.Unlock()
	if v.err != "" {
		return v, fmt.Errorf("%s", v.err)
	}
	return v, nil
}

// partition returns the memoized solution of one closed-form solve,
// computing it via solve under the cache lock on first use.
func (ev *evaluator) partition(key partKey, solve func() (int, int)) (int, int) {
	v, computed := ev.part.GetOrCompute(key, func() partVal {
		a, b := solve()
		return partVal{a: a, b: b}
	})
	ev.mu.Lock()
	ev.stats.PartitionLookups++
	if computed {
		ev.stats.PartitionSolves++
	}
	ev.mu.Unlock()
	return v.a, v.b
}

// paper-default problem sizes per app (Section 6.1; spmv has no paper
// size — its default keeps a dense-operator point affordable under
// MethodSim).
func appDefaults(app string) (n, b int) {
	switch app {
	case "lu":
		return 30000, 3000
	case "fw":
		return 18432, 256
	case "spmv":
		return 2048, 0
	default: // mm
		return 6144, 0
	}
}

func modeByName(name string) core.Mode {
	switch name {
	case "processor-only":
		return core.ProcessorOnly
	case "fpga-only":
		return core.FPGAOnly
	default:
		return core.Hybrid
	}
}

// resolved is a Point with sentinels replaced: concrete machine
// config, problem/block sizes and PE count.
type resolved struct {
	pt   Point
	cfg  machine.Config
	mode core.Mode
	n, b int
	k    int
	of   int
}

// fail builds an infeasible outcome.
func fail(err error) Outcome { return Outcome{Err: err.Error()} }

// resolve fills a point's sentinel values: the machine config (preset
// + node override), app-default sizes, and the PE count (largest
// fitting array when 0, shrunk to divide the FW block size as the
// paper does).
func (ev *evaluator) resolve(pt Point) (resolved, error) {
	cfg, err := machine.Preset(pt.Machine)
	if err != nil {
		return resolved{}, err
	}
	cfg = cfg.WithNodes(pt.Nodes)
	r := resolved{pt: pt, cfg: cfg, mode: modeByName(pt.Mode), n: pt.N, b: pt.B}
	dn, db := appDefaults(pt.App)
	if r.n == 0 {
		r.n = dn
	}
	if r.b == 0 {
		r.b = db
	}
	mk := func(k int) fpga.Design { return fpga.NewMatMul(k) }
	switch pt.App {
	case "fw":
		mk = func(k int) fpga.Design { return fpga.NewFW(k) }
	case "spmv":
		mk = func(k int) fpga.Design { return fpga.NewMV(k) }
	}
	r.k = pt.PEs
	if r.k == 0 {
		// Memoized by (family, device, b-for-FW): every grid point that
		// leaves PEs unset shares the same search unless it changes one
		// of those axes, so a million-point sweep pays for a handful of
		// MaxPEs searches instead of one per point.
		key := resolveKey{family: "matmul", device: cfg.Device.Name}
		switch pt.App {
		case "fw":
			key.family, key.b = "fw", r.b
		case "spmv":
			key.family = "mv"
		}
		k, computed := ev.maxk.GetOrCompute(key, func() int {
			k := fpga.MaxPEs(mk, cfg.Device)
			if pt.App == "fw" {
				// Largest PE count dividing the block size (mkmachine's
				// convention for non-power-of-two blocks).
				for k > 1 && r.b%k != 0 {
					k--
				}
			}
			return k
		})
		ev.mu.Lock()
		ev.stats.ResolveLookups++
		if computed {
			ev.stats.ResolveSolves++
		}
		ev.mu.Unlock()
		r.k = k
	}
	if r.k < 1 {
		return r, fmt.Errorf("no %s PE array fits %s", pt.App, cfg.Device.Name)
	}
	r.of = 2 * r.k // both PE arrays do two flops per PE per cycle
	return r, nil
}

// evaluate runs one grid point under the given method.
func (ev *evaluator) evaluate(pt Point, method string) Outcome {
	r, err := ev.resolve(pt)
	if err != nil {
		return fail(err)
	}
	switch pt.App {
	case "lu":
		return ev.evalLU(r, method)
	case "fw":
		return ev.evalFW(r, method)
	case "spmv":
		return ev.evalSpMV(r, method)
	default:
		return ev.evalMM(r, method)
	}
}

// design returns the placed design's outcome skeleton: PE geometry,
// clock, resource usage and effective DRAM bandwidth.
func (ev *evaluator) design(r resolved, d fpga.Design) (Outcome, float64, error) {
	pv, err := ev.placed(d, r.cfg.Device)
	if err != nil {
		return Outcome{}, 0, err
	}
	bd := machine.EffectiveBd(r.cfg.RawFPGADRAMBandwidth, pv.freqHz)
	return Outcome{
		OK: true, K: r.k, Of: r.of, FfMHz: pv.freqHz / 1e6,
		Slices: pv.usage.Slices, BlockRAMs: pv.usage.BlockRAMs, Multipliers: pv.usage.Multipliers,
		BdGBps: bd / 1e9,
	}, bd, nil
}

// sramBytes is the on-board memory budget the designs allocate: half
// of the node's QDR-II capacity, matching internal/core's runs.
func sramBytes(cfg machine.Config) int64 {
	return int64(cfg.SRAMBanks) * cfg.SRAMBankBytes / 2
}

func (ev *evaluator) evalLU(r resolved, method string) Outcome {
	cfg, n, b := r.cfg, r.n, r.b
	p := cfg.Nodes
	switch {
	case p < 2:
		return fail(fmt.Errorf("lu needs p >= 2, got %d", p))
	case n%b != 0:
		return fail(fmt.Errorf("block size %d must divide n=%d", b, n))
	case b%(p-1) != 0:
		return fail(fmt.Errorf("block size %d must be a multiple of p-1=%d", b, p-1))
	case b%r.k != 0:
		return fail(fmt.Errorf("block size %d must be a multiple of k=%d", b, r.k))
	}
	out, bd, err := ev.design(r, fpga.NewMatMul(r.k))
	if err != nil {
		return fail(err)
	}
	proc := cfg.Processor()
	lp := model.LUParams{
		P: p, B: b, K: r.k,
		Ff:         out.FfMHz * 1e6,
		StripeRate: proc.Rate(cpu.DGEMMStripe),
		LURate:     proc.Rate(cpu.DGETRF),
		TrsmRate:   proc.Rate(cpu.DTRSM),
		Bd:         bd,
		Bn:         cfg.Fabric.LinkBandwidth,
		Bw:         machine.WordBytes,
		SRAMBytes:  sramBytes(cfg),
	}
	if err := lp.Validate(); err != nil {
		return fail(err)
	}
	// Resolve the partition exactly as core.RunLU does.
	bf := r.pt.BF
	switch r.mode {
	case core.ProcessorOnly:
		bf = 0
	case core.FPGAOnly:
		bf = b
	default:
		if bf < 0 {
			bf, _ = ev.partition(partKey{kind: "lu.bf", params: lp}, lp.SolvePartition)
		}
	}
	if bf < 0 || bf > b {
		return fail(fmt.Errorf("bf=%d out of [0,%d]", bf, b))
	}
	l := r.pt.L
	if l < 0 {
		l, _ = ev.partition(partKey{kind: "lu.l", params: lp, arg: bf},
			func() (int, int) { return lp.SolveL(bf), 0 })
	}
	out.BF, out.BP, out.L = bf, b-bf, l

	if method == MethodModel {
		pred := lp.PredictLU(n, bf)
		out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pred.GFLOPS, pred.Seconds, pred.GFLOPS
		bind, margin := lp.StripeBinding(bf)
		out.Binding, out.Margin = bind.String(), margin
		return out
	}

	rec := recorder()
	res, err := core.RunLU(core.LUConfig{
		Machine: cfg, N: n, B: b, PEs: r.k, BF: r.pt.BF, L: r.pt.L,
		Mode: r.mode, Observer: rec,
	})
	if err != nil {
		recs.Put(rec)
		return fail(err)
	}
	expect, _ := res.Model.StripeBinding(res.BF)
	return ev.measured(out, &res.Result, res.Prediction, rec,
		map[string]model.Binding{"opmm": expect},
		func(o *Outcome) { o.BF, o.BP, o.L = res.BF, res.BP, res.L })
}

func (ev *evaluator) evalFW(r resolved, method string) Outcome {
	cfg, n, b := r.cfg, r.n, r.b
	p := cfg.Nodes
	switch {
	case b*p == 0 || n%(b*p) != 0:
		return fail(fmt.Errorf("b*p=%d must divide n=%d", b*p, n))
	case b%r.k != 0:
		return fail(fmt.Errorf("block size %d must be a multiple of k=%d", b, r.k))
	}
	out, bd, err := ev.design(r, fpga.NewFW(r.k))
	if err != nil {
		return fail(err)
	}
	proc := cfg.Processor()
	fp := model.FWParams{
		P: p, B: b, K: r.k,
		Ff:        out.FfMHz * 1e6,
		FWRate:    proc.Rate(cpu.FWKernel),
		Bd:        bd,
		Bn:        cfg.Fabric.LinkBandwidth,
		Bw:        machine.WordBytes,
		SRAMBytes: sramBytes(cfg),
	}
	if err := fp.Validate(); err != nil {
		return fail(err)
	}
	total := fp.OpsPerPhase(n)
	l1 := r.pt.L
	switch r.mode {
	case core.ProcessorOnly:
		l1 = total
	case core.FPGAOnly:
		l1 = 0
	default:
		if l1 < 0 {
			l1, _ = ev.partition(partKey{kind: "fw.l1", params: fp, arg: n},
				func() (int, int) { return fp.SolveSplit(n) })
		}
	}
	if l1 < 0 || l1 > total {
		return fail(fmt.Errorf("l1=%d out of [0,%d]", l1, total))
	}
	out.L1, out.L2 = l1, total-l1

	if method == MethodModel {
		pred := fp.PredictFW(n, l1, total-l1)
		out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pred.GFLOPS, pred.Seconds, pred.GFLOPS
		bind, margin := fp.PhaseBinding(l1, total-l1)
		out.Binding, out.Margin = bind.String(), margin
		return out
	}

	gridL1 := r.pt.L
	if r.mode != core.Hybrid {
		gridL1 = -1 // RunFW derives baseline splits itself
	}
	rec := recorder()
	res, err := core.RunFW(core.FWConfig{
		Machine: cfg, N: n, B: b, PEs: r.k, L1: gridL1,
		Mode: r.mode, Observer: rec,
	})
	if err != nil {
		recs.Put(rec)
		return fail(err)
	}
	expect, _ := res.Model.PhaseBinding(res.L1, res.L2)
	return ev.measured(out, &res.Result, res.Prediction, rec,
		map[string]model.Binding{"op": expect},
		func(o *Outcome) { o.L1, o.L2 = res.L1, res.L2 })
}

func (ev *evaluator) evalMM(r resolved, method string) Outcome {
	cfg, n := r.cfg, r.n
	p := cfg.Nodes
	switch {
	case n%r.k != 0:
		return fail(fmt.Errorf("n=%d must be a multiple of k=%d", n, r.k))
	case n%p != 0:
		return fail(fmt.Errorf("n=%d must be a multiple of p=%d", n, p))
	}
	out, bd, err := ev.design(r, fpga.NewMatMul(r.k))
	if err != nil {
		return fail(err)
	}
	proc := cfg.Processor()
	mp := model.MMParams{
		P: p, N: n, K: r.k,
		Ff:         out.FfMHz * 1e6,
		StripeRate: proc.Rate(cpu.DGEMMStripe),
		Bd:         bd,
		Bw:         machine.WordBytes,
		SRAMBytes:  sramBytes(cfg),
	}
	if err := mp.Validate(); err != nil {
		return fail(err)
	}
	bf := r.pt.BF
	switch r.mode {
	case core.ProcessorOnly:
		bf = 0
	case core.FPGAOnly:
		bf = n
	default:
		if bf < 0 {
			bf, _ = ev.partition(partKey{kind: "mm.bf", params: mp}, mp.SolvePartition)
		}
	}
	if bf < 0 || bf > n {
		return fail(fmt.Errorf("bf=%d out of [0,%d]", bf, n))
	}
	out.BF, out.BP = bf, n-bf

	if method == MethodModel {
		pred := mp.PredictMM(bf)
		out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pred.GFLOPS, pred.Seconds, pred.GFLOPS
		bind, margin := mp.StripeBinding(bf)
		out.Binding, out.Margin = bind.String(), margin
		return out
	}

	rec := recorder()
	res, err := core.RunMM(core.MMConfig{
		Machine: cfg, N: n, PEs: r.k, BF: r.pt.BF,
		Mode: r.mode, Observer: rec,
	})
	if err != nil {
		recs.Put(rec)
		return fail(err)
	}
	expect, _ := res.Model.StripeBinding(res.BF)
	return ev.measured(out, &res.Result, res.Prediction, rec,
		map[string]model.Binding{"stripe": expect},
		func(o *Outcome) { o.BF, o.BP = res.BF, res.BP })
}

func (ev *evaluator) evalSpMV(r resolved, method string) Outcome {
	cfg, n := r.cfg, r.n
	out, bd, err := ev.design(r, fpga.NewMV(r.k))
	if err != nil {
		return fail(err)
	}
	proc := cfg.Processor()
	// The operator's stream footprint mirrors matrix.RandomSparse
	// exactly — round(density·(n-1)) off-diagonals plus the diagonal per
	// row — so the model method prices the same operator the sim method
	// materializes.
	var words, nnz int
	mvRate := proc.Rate(cpu.DGEMV)
	if r.pt.Density > 0 {
		perRow := int(r.pt.Density*float64(n-1) + 0.5)
		nnz = n * (perRow + 1)
		words = model.CSRStreamWords(nnz)
		mvRate = proc.Rate(cpu.SpMV)
	} else {
		nnz = n * n
		words = n * n
	}
	sp := model.SpMVParams{
		N: n, K: r.k, Words: words,
		Ff:        out.FfMHz * 1e6,
		MVRate:    mvRate,
		Bd:        bd,
		Bs:        cfg.SRAMBandwidth,
		Bw:        machine.WordBytes,
		SRAMBytes: sramBytes(cfg),
		Applies:   1,
		Flops:     2 * float64(nnz),
	}
	if err := sp.Validate(); err != nil {
		return fail(err)
	}
	rf := r.pt.BF
	switch r.mode {
	case core.ProcessorOnly:
		rf = 0
	case core.FPGAOnly:
		rf = n
	default:
		if rf < 0 {
			rf, _ = ev.partition(partKey{kind: "spmv.rf", params: sp}, sp.SolvePartition)
		}
	}
	if rf < 0 || rf > n {
		return fail(fmt.Errorf("rowsFPGA=%d out of [0,%d]", rf, n))
	}
	out.BF, out.BP = rf, n-rf

	if method == MethodModel {
		pred := sp.PredictSpMV(rf)
		out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pred.GFLOPS, pred.Seconds, pred.GFLOPS
		bind, margin := sp.StripeBinding(rf)
		out.Binding, out.Margin = bind.String(), margin
		return out
	}

	rec := recorder()
	res, err := core.RunSpMV(core.SpMVConfig{
		Machine: cfg, N: n, Density: r.pt.Density, PEs: r.k, RowsFPGA: r.pt.BF,
		Mode: r.mode, Observer: rec,
	})
	if err != nil {
		recs.Put(rec)
		return fail(err)
	}
	expect, _ := res.Model.StripeBinding(res.RowsFPGA)
	return ev.measured(out, &res.Result, res.Prediction, rec,
		map[string]model.Binding{"stream": expect},
		func(o *Outcome) { o.BF, o.BP = res.RowsFPGA, res.RowsCPU })
}

// measured finishes a MethodSim outcome: measured throughput, the
// Section 4.5 prediction, the telemetry overlap efficiency, and the
// dominant phase's measured binding from the internal/analysis
// bottleneck classifier. It consumes rec — the span digest runs on the
// recorder's buffer in place and the recorder returns to the pool — so
// callers must not touch rec afterwards.
func (ev *evaluator) measured(out Outcome, res *core.Result, pred model.Prediction,
	rec *trace.Recorder, expected map[string]model.Binding, fill func(*Outcome)) Outcome {
	defer recs.Put(rec)
	out.GFLOPS, out.Seconds, out.PredictedGFLOPS = res.GFLOPS, res.Seconds, pred.GFLOPS
	// Digest the sweep's own recorder instead of asking the run for a
	// full telemetry summary: ComputeOverlap over the same span stream
	// and makespan yields the identical efficiency at a fraction of the
	// cost (no per-process/per-resource digest per grid point).
	out.OverlapEfficiency = trace.ComputeOverlap(rec.SpansView(), res.Seconds).Efficiency()
	fill(&out)
	phases := analysis.ClassifyPhases(rec.SpansView(), expected)
	var busiest *analysis.PhaseStats
	for i := range phases {
		if phases[i].Phase == "" {
			continue
		}
		if busiest == nil || phases[i].TotalBusy() > busiest.TotalBusy() {
			busiest = &phases[i]
		}
	}
	if busiest != nil {
		out.Binding, out.Margin = busiest.Binding.String(), busiest.Margin
	}
	return out
}
