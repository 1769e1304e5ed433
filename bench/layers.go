package main

import (
	"fmt"

	"codesign/internal/analysis"
	"codesign/internal/core"
	"codesign/internal/cpu"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/model"
	"codesign/internal/sim"
	"codesign/internal/sweep"
	"codesign/internal/trace"
)

// This file re-derives one design point's evaluation the way
// internal/sweep's evaluator does, but as a chain of direct calls into
// each layer's public functions, each inside its own span: fpga
// (MaxPEs, Place), model (the partition solve, the prediction), core
// (the simulation, with a span recorder attached as the sweep does),
// trace (ComputeOverlap) and analysis (ClassifyPhases). The replayed
// Outcome must equal the swept one exactly; a difference means the
// chain no longer measures what the sweep runs.

// tracer records layer spans and keeps each layer call's duration for
// the ledger's per-call statistics.
type tracer struct {
	rec  *spanRecorder
	durs map[string][]float64 // seconds per call, by span name
	// simSpans counts the telemetry spans the recorded simulations
	// emitted.
	simSpans int
}

func newTracer() *tracer { return &tracer{rec: newSpanRecorder(), durs: map[string][]float64{}} }

// call runs fn inside a span named after the layer function.
func (t *tracer) call(name string, parent, req int64, fn func()) float64 {
	d := t.rec.timed(name, parent, req, fn)
	t.durs[name] = append(t.durs[name], d)
	return d
}

// resolvedPoint is a point with its sentinels filled, as the evaluator
// resolves it.
type resolvedPoint struct {
	pt   sweep.Point
	cfg  machine.Config
	mode core.Mode
	n, b int
	k    int
}

func paperSizes(app string) (n, b int) {
	switch app {
	case "lu":
		return 30000, 3000
	case "fw":
		return 18432, 256
	case "spmv":
		return 2048, 0
	default:
		return 6144, 0
	}
}

func modeOf(name string) core.Mode {
	switch name {
	case "processor-only":
		return core.ProcessorOnly
	case "fpga-only":
		return core.FPGAOnly
	default:
		return core.Hybrid
	}
}

// designFor is the app's FPGA design family at k PEs.
func designFor(app string, k int) fpga.Design {
	switch app {
	case "fw":
		return fpga.NewFW(k)
	case "spmv":
		return fpga.NewMV(k)
	default:
		return fpga.NewMatMul(k)
	}
}

func failed(err error) sweep.Outcome { return sweep.Outcome{Err: err.Error()} }

// resolve fills the machine, sizes and PE count (fpga.MaxPEs when the
// point leaves PEs at 0).
func (t *tracer) resolve(pt sweep.Point, parent, req int64) (resolvedPoint, error) {
	cfg, err := machine.Preset(pt.Machine)
	if err != nil {
		return resolvedPoint{}, err
	}
	cfg = cfg.WithNodes(pt.Nodes)
	r := resolvedPoint{pt: pt, cfg: cfg, mode: modeOf(pt.Mode), n: pt.N, b: pt.B, k: pt.PEs}
	dn, db := paperSizes(pt.App)
	if r.n == 0 {
		r.n = dn
	}
	if r.b == 0 {
		r.b = db
	}
	if r.k == 0 {
		t.call("fpga.maxpes", parent, req, func() {
			r.k = fpga.MaxPEs(func(k int) fpga.Design { return designFor(pt.App, k) }, cfg.Device)
		})
		if pt.App == "fw" {
			for r.k > 1 && r.b%r.k != 0 {
				r.k--
			}
		}
	}
	if r.k < 1 {
		return r, fmt.Errorf("no %s PE array fits %s", pt.App, cfg.Device.Name)
	}
	return r, nil
}

// place runs pseudo place-and-route and fills the outcome's design
// fields; it returns the effective FPGA-DRAM bandwidth.
func (t *tracer) place(r resolvedPoint, parent, req int64) (sweep.Outcome, float64, error) {
	d := designFor(r.pt.App, r.k)
	var p *fpga.Placed
	var err error
	t.call("fpga.place", parent, req, func() { p, err = fpga.Place(d, r.cfg.Device) })
	if err != nil {
		return sweep.Outcome{}, 0, err
	}
	u := d.Resources()
	bd := machine.EffectiveBd(r.cfg.RawFPGADRAMBandwidth, p.FreqHz)
	return sweep.Outcome{
		OK: true, K: r.k, Of: 2 * r.k, FfMHz: p.FreqHz / 1e6,
		Slices: u.Slices, BlockRAMs: u.BlockRAMs, Multipliers: u.Multipliers,
		BdGBps: bd / 1e9,
	}, bd, nil
}

func sramBytes(cfg machine.Config) int64 { return int64(cfg.SRAMBanks) * cfg.SRAMBankBytes / 2 }

// simRun is one app's simulation wired for the replay: the config to
// run, and how to read the result into an outcome.
type simRun struct {
	run func(obs sim.Observer) (res *core.Result, pred model.Prediction, expected map[string]model.Binding, fill func(*sweep.Outcome), err error)
}

// evaluate replays one point under method and returns its Outcome.
// Under MethodSim the simulation records its spans into rec (reset
// first), and evaluate also returns the simulation, so the ledger can
// rerun it without an observer.
func (t *tracer) evaluate(pt sweep.Point, method string, rec *trace.Recorder, parent, req int64) (sweep.Outcome, *simRun, resolvedPoint) {
	r, err := t.resolve(pt, parent, req)
	if err != nil {
		return failed(err), nil, r
	}
	var out sweep.Outcome
	var sr *simRun
	switch pt.App {
	case "lu":
		out, sr = t.lu(r, method, parent, req)
	case "fw":
		out, sr = t.fw(r, method, parent, req)
	case "spmv":
		out, sr = t.spmv(r, method, parent, req)
	default:
		out, sr = t.mm(r, method, parent, req)
	}
	if sr == nil || method != sweep.MethodSim {
		return out, nil, r
	}
	rec.Reset()
	var res *core.Result
	var pred model.Prediction
	var expected map[string]model.Binding
	var fill func(*sweep.Outcome)
	t.call("core.run", parent, req, func() { res, pred, expected, fill, err = sr.run(rec) })
	if err != nil {
		return failed(err), nil, r
	}
	t.simSpans += len(rec.SpansView())
	out.GFLOPS, out.Seconds, out.PredictedGFLOPS = res.GFLOPS, res.Seconds, pred.GFLOPS
	t.call("trace.overlap", parent, req, func() {
		out.OverlapEfficiency = trace.ComputeOverlap(rec.SpansView(), res.Seconds).Efficiency()
	})
	fill(&out)
	t.call("analysis.classify", parent, req, func() {
		phases := analysis.ClassifyPhases(rec.SpansView(), expected)
		var busiest *analysis.PhaseStats
		for i := range phases {
			if phases[i].Phase != "" && (busiest == nil || phases[i].TotalBusy() > busiest.TotalBusy()) {
				busiest = &phases[i]
			}
		}
		if busiest != nil {
			out.Binding, out.Margin = busiest.Binding.String(), busiest.Margin
		}
	})
	return out, sr, r
}

func (t *tracer) lu(r resolvedPoint, method string, parent, req int64) (sweep.Outcome, *simRun) {
	cfg, n, b, p := r.cfg, r.n, r.b, r.cfg.Nodes
	switch {
	case p < 2:
		return failed(fmt.Errorf("lu needs p >= 2, got %d", p)), nil
	case n%b != 0:
		return failed(fmt.Errorf("block size %d must divide n=%d", b, n)), nil
	case b%(p-1) != 0:
		return failed(fmt.Errorf("block size %d must be a multiple of p-1=%d", b, p-1)), nil
	case b%r.k != 0:
		return failed(fmt.Errorf("block size %d must be a multiple of k=%d", b, r.k)), nil
	}
	out, bd, err := t.place(r, parent, req)
	if err != nil {
		return failed(err), nil
	}
	proc := cfg.Processor()
	lp := model.LUParams{
		P: p, B: b, K: r.k, Ff: out.FfMHz * 1e6,
		StripeRate: proc.Rate(cpu.DGEMMStripe), LURate: proc.Rate(cpu.DGETRF), TrsmRate: proc.Rate(cpu.DTRSM),
		Bd: bd, Bn: cfg.Fabric.LinkBandwidth, Bw: machine.WordBytes, SRAMBytes: sramBytes(cfg),
	}
	if err := lp.Validate(); err != nil {
		return failed(err), nil
	}
	bf, l := r.pt.BF, r.pt.L
	switch r.mode {
	case core.ProcessorOnly:
		bf = 0
	case core.FPGAOnly:
		bf = b
	}
	if bf < 0 {
		t.call("model.solve", parent, req, func() { bf, _ = lp.SolvePartition() })
	}
	if bf < 0 || bf > b {
		return failed(fmt.Errorf("bf=%d out of [0,%d]", bf, b)), nil
	}
	if l < 0 {
		t.call("model.solve", parent, req, func() { l = lp.SolveL(bf) })
	}
	out.BF, out.BP, out.L = bf, b-bf, l
	if method == sweep.MethodModel {
		t.call("model.predict", parent, req, func() {
			pred := lp.PredictLU(n, bf)
			out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pred.GFLOPS, pred.Seconds, pred.GFLOPS
			bind, margin := lp.StripeBinding(bf)
			out.Binding, out.Margin = bind.String(), margin
		})
		return out, nil
	}
	return out, &simRun{run: func(obs sim.Observer) (*core.Result, model.Prediction, map[string]model.Binding, func(*sweep.Outcome), error) {
		res, err := core.RunLU(core.LUConfig{Machine: cfg, N: n, B: b, PEs: r.k, BF: r.pt.BF, L: r.pt.L, Mode: r.mode, Observer: obs})
		if err != nil {
			return nil, model.Prediction{}, nil, nil, err
		}
		expect, _ := res.Model.StripeBinding(res.BF)
		return &res.Result, res.Prediction, map[string]model.Binding{"opmm": expect},
			func(o *sweep.Outcome) { o.BF, o.BP, o.L = res.BF, res.BP, res.L }, nil
	}}
}

func (t *tracer) fw(r resolvedPoint, method string, parent, req int64) (sweep.Outcome, *simRun) {
	cfg, n, b, p := r.cfg, r.n, r.b, r.cfg.Nodes
	switch {
	case b*p == 0 || n%(b*p) != 0:
		return failed(fmt.Errorf("b*p=%d must divide n=%d", b*p, n)), nil
	case b%r.k != 0:
		return failed(fmt.Errorf("block size %d must be a multiple of k=%d", b, r.k)), nil
	}
	out, bd, err := t.place(r, parent, req)
	if err != nil {
		return failed(err), nil
	}
	fp := model.FWParams{
		P: p, B: b, K: r.k, Ff: out.FfMHz * 1e6, FWRate: cfg.Processor().Rate(cpu.FWKernel),
		Bd: bd, Bn: cfg.Fabric.LinkBandwidth, Bw: machine.WordBytes, SRAMBytes: sramBytes(cfg),
	}
	if err := fp.Validate(); err != nil {
		return failed(err), nil
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
			t.call("model.solve", parent, req, func() { l1, _ = fp.SolveSplit(n) })
		}
	}
	if l1 < 0 || l1 > total {
		return failed(fmt.Errorf("l1=%d out of [0,%d]", l1, total)), nil
	}
	out.L1, out.L2 = l1, total-l1
	if method == sweep.MethodModel {
		t.call("model.predict", parent, req, func() {
			pred := fp.PredictFW(n, l1, total-l1)
			out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pred.GFLOPS, pred.Seconds, pred.GFLOPS
			bind, margin := fp.PhaseBinding(l1, total-l1)
			out.Binding, out.Margin = bind.String(), margin
		})
		return out, nil
	}
	gridL1 := r.pt.L
	if r.mode != core.Hybrid {
		gridL1 = -1
	}
	return out, &simRun{run: func(obs sim.Observer) (*core.Result, model.Prediction, map[string]model.Binding, func(*sweep.Outcome), error) {
		res, err := core.RunFW(core.FWConfig{Machine: cfg, N: n, B: b, PEs: r.k, L1: gridL1, Mode: r.mode, Observer: obs})
		if err != nil {
			return nil, model.Prediction{}, nil, nil, err
		}
		expect, _ := res.Model.PhaseBinding(res.L1, res.L2)
		return &res.Result, res.Prediction, map[string]model.Binding{"op": expect},
			func(o *sweep.Outcome) { o.L1, o.L2 = res.L1, res.L2 }, nil
	}}
}

func (t *tracer) mm(r resolvedPoint, method string, parent, req int64) (sweep.Outcome, *simRun) {
	cfg, n, p := r.cfg, r.n, r.cfg.Nodes
	switch {
	case n%r.k != 0:
		return failed(fmt.Errorf("n=%d must be a multiple of k=%d", n, r.k)), nil
	case n%p != 0:
		return failed(fmt.Errorf("n=%d must be a multiple of p=%d", n, p)), nil
	}
	out, bd, err := t.place(r, parent, req)
	if err != nil {
		return failed(err), nil
	}
	mp := model.MMParams{
		P: p, N: n, K: r.k, Ff: out.FfMHz * 1e6, StripeRate: cfg.Processor().Rate(cpu.DGEMMStripe),
		Bd: bd, Bw: machine.WordBytes, SRAMBytes: sramBytes(cfg),
	}
	if err := mp.Validate(); err != nil {
		return failed(err), nil
	}
	bf := r.pt.BF
	switch r.mode {
	case core.ProcessorOnly:
		bf = 0
	case core.FPGAOnly:
		bf = n
	default:
		if bf < 0 {
			t.call("model.solve", parent, req, func() { bf, _ = mp.SolvePartition() })
		}
	}
	if bf < 0 || bf > n {
		return failed(fmt.Errorf("bf=%d out of [0,%d]", bf, n)), nil
	}
	out.BF, out.BP = bf, n-bf
	if method == sweep.MethodModel {
		t.call("model.predict", parent, req, func() {
			pred := mp.PredictMM(bf)
			out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pred.GFLOPS, pred.Seconds, pred.GFLOPS
			bind, margin := mp.StripeBinding(bf)
			out.Binding, out.Margin = bind.String(), margin
		})
		return out, nil
	}
	return out, &simRun{run: func(obs sim.Observer) (*core.Result, model.Prediction, map[string]model.Binding, func(*sweep.Outcome), error) {
		res, err := core.RunMM(core.MMConfig{Machine: cfg, N: n, PEs: r.k, BF: r.pt.BF, Mode: r.mode, Observer: obs})
		if err != nil {
			return nil, model.Prediction{}, nil, nil, err
		}
		expect, _ := res.Model.StripeBinding(res.BF)
		return &res.Result, res.Prediction, map[string]model.Binding{"stripe": expect},
			func(o *sweep.Outcome) { o.BF, o.BP = res.BF, res.BP }, nil
	}}
}

func (t *tracer) spmv(r resolvedPoint, method string, parent, req int64) (sweep.Outcome, *simRun) {
	cfg, n := r.cfg, r.n
	out, bd, err := t.place(r, parent, req)
	if err != nil {
		return failed(err), nil
	}
	proc := cfg.Processor()
	var words, nnz int
	mvRate := proc.Rate(cpu.DGEMV)
	if r.pt.Density > 0 {
		perRow := int(r.pt.Density*float64(n-1) + 0.5)
		nnz = n * (perRow + 1)
		words = model.CSRStreamWords(nnz)
		mvRate = proc.Rate(cpu.SpMV)
	} else {
		nnz, words = n*n, n*n
	}
	sp := model.SpMVParams{
		N: n, K: r.k, Words: words, Ff: out.FfMHz * 1e6, MVRate: mvRate,
		Bd: bd, Bs: cfg.SRAMBandwidth, Bw: machine.WordBytes, SRAMBytes: sramBytes(cfg),
		Applies: 1, Flops: 2 * float64(nnz),
	}
	if err := sp.Validate(); err != nil {
		return failed(err), nil
	}
	rf := r.pt.BF
	switch r.mode {
	case core.ProcessorOnly:
		rf = 0
	case core.FPGAOnly:
		rf = n
	default:
		if rf < 0 {
			t.call("model.solve", parent, req, func() { rf, _ = sp.SolvePartition() })
		}
	}
	if rf < 0 || rf > n {
		return failed(fmt.Errorf("rowsFPGA=%d out of [0,%d]", rf, n)), nil
	}
	out.BF, out.BP = rf, n-rf
	if method == sweep.MethodModel {
		t.call("model.predict", parent, req, func() {
			pred := sp.PredictSpMV(rf)
			out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pred.GFLOPS, pred.Seconds, pred.GFLOPS
			bind, margin := sp.StripeBinding(rf)
			out.Binding, out.Margin = bind.String(), margin
		})
		return out, nil
	}
	return out, &simRun{run: func(obs sim.Observer) (*core.Result, model.Prediction, map[string]model.Binding, func(*sweep.Outcome), error) {
		res, err := core.RunSpMV(core.SpMVConfig{Machine: cfg, N: n, Density: r.pt.Density, PEs: r.k, RowsFPGA: r.pt.BF, Mode: r.mode, Observer: obs})
		if err != nil {
			return nil, model.Prediction{}, nil, nil, err
		}
		expect, _ := res.Model.StripeBinding(res.RowsFPGA)
		return &res.Result, res.Prediction, map[string]model.Binding{"stream": expect},
			func(o *sweep.Outcome) { o.BF, o.BP = res.RowsFPGA, res.RowsCPU }, nil
	}}
}
