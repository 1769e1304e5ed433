package sweep

import (
	"cmp"
	"fmt"
	"strings"
	"sync"

	"codesign/internal/analysis"
	"codesign/internal/cache"
	"codesign/internal/core"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/model"
	"codesign/internal/sim"
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

// partVal is a memoized partition solution (two ints cover every
// solver: bf/bp, l/-, l1/l2).
type partVal struct {
	a, b int
}

// resolveKey identifies one largest-fitting-PE-array search (the
// PEs=0 sentinel resolution). With placeKey and core.PartitionSolve it
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
	part  *cache.LRU[core.PartitionSolve, partVal]
	maxk  *cache.LRU[resolveKey, int]

	mu    sync.Mutex
	stats Stats
}

// newEvaluator builds an evaluator whose memo caches hold at most
// bound entries each (0 = unbounded, the per-sweep mode).
func newEvaluator(bound int) *evaluator {
	return &evaluator{
		place: cache.NewLRU[placeKey, placeVal](bound),
		part:  cache.NewLRU[core.PartitionSolve, partVal](bound),
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

// add accumulates a point's memo traffic (lookups and solves; Points
// and Errors are reduce's).
func (s *Stats) add(t Stats) {
	s.PlaceLookups += t.PlaceLookups
	s.PlaceSolves += t.PlaceSolves
	s.PartitionLookups += t.PartitionLookups
	s.PartitionSolves += t.PartitionSolves
	s.ResolveLookups += t.ResolveLookups
	s.ResolveSolves += t.ResolveSolves
}

// lookups returns the tally's lookups alone: the traffic a point that
// shares a representative's evaluation demands, without the solves it
// did not compute.
func (s Stats) lookups() Stats {
	return Stats{PlaceLookups: s.PlaceLookups, PartitionLookups: s.PartitionLookups, ResolveLookups: s.ResolveLookups}
}

// charge merges one point's tally into the evaluator's stats.
func (ev *evaluator) charge(t Stats) {
	ev.mu.Lock()
	ev.stats.add(t)
	ev.mu.Unlock()
}

// placed returns the memoized pseudo place-and-route solution for the
// design on the device. The compute happens under the cache lock
// (cache.LRU.GetOrCompute), so each distinct placement is solved
// exactly once per evaluator no matter how many workers race for it.
func (ev *evaluator) placed(d fpga.Design, dev fpga.Device, tally *Stats) (placeVal, error) {
	key := placeKey{design: d.Name(), k: d.PEs(), device: dev.Name}
	v, computed := ev.place.GetOrCompute(key, func() placeVal {
		p, err := fpga.Place(d, dev)
		if err != nil {
			return placeVal{err: err.Error()}
		}
		return placeVal{usage: d.Resources(), freqHz: p.FreqHz}
	})
	tally.PlaceLookups++
	if computed {
		tally.PlaceSolves++
	}
	if v.err != "" {
		return v, fmt.Errorf("%s", v.err)
	}
	return v, nil
}

// Solve implements core.Memo: the memoized solution of one closed-form
// partition solve, computed under the cache lock on first use. The
// caller tallies the traffic from computed, so a model half called
// through App.Price needs no pointer into the point's tally.
func (ev *evaluator) Solve(s core.PartitionSolve) (int, int, bool) {
	v, computed := ev.part.GetOrCompute(s, func() partVal {
		a, b := s.Solve()
		return partVal{a: a, b: b}
	})
	return v.a, v.b, computed
}

// lookup returns the registry row of an app a Grid can sweep: one with
// a model half.
func lookup(name string) (core.App, error) {
	app, err := core.LookupApp(name)
	switch {
	case err != nil:
		return app, fmt.Errorf("unknown app %q (want one of %s)", name, strings.Join(Apps(), ", "))
	case app.Price == nil:
		return app, fmt.Errorf("app %q has no closed-form model (want one of %s)", name, strings.Join(Apps(), ", "))
	}
	return app, nil
}

// Apps returns the names of the applications a Grid can sweep: the
// registered apps with a model half, in registry order.
func Apps() []string {
	var names []string
	for _, a := range core.Apps() {
		if a.Price != nil {
			names = append(names, a.Name)
		}
	}
	return names
}

// effective returns pt's effective coordinate: pt with its Index and
// every axis its app never reads (core.App.Unread) zeroed. Points with
// equal effective coordinates evaluate to equal Outcomes, so a sweep
// evaluates one of them.
func effective(pt Point) Point {
	var unread core.Axis
	if app, err := core.LookupApp(pt.App); err == nil {
		unread = app.Unread
	}
	pt.Index = 0
	if unread&core.AxisB != 0 {
		pt.B = 0
	}
	if unread&core.AxisBF != 0 {
		pt.BF = 0
	}
	if unread&core.AxisL != 0 {
		pt.L = 0
	}
	if unread&core.AxisDensity != 0 {
		pt.Density = 0
	}
	return pt
}

// resolved is a Point with sentinels replaced: concrete machine
// config, problem/block sizes and PE count.
type resolved struct {
	app  core.App
	pt   Point
	cfg  machine.Config
	mode core.Mode
	n, b int
	k    int
}

// fail builds an infeasible outcome.
func fail(err error) Outcome { return Outcome{Err: err.Error()} }

// resolve fills a point's sentinel values: the machine config (preset
// + node override), app-default sizes, and the PE count (the app's PE
// rule, core.App.MaxPEs, when 0).
func (ev *evaluator) resolve(pt Point, tally *Stats) (resolved, error) {
	app, err := lookup(pt.App)
	if err != nil {
		return resolved{}, err
	}
	cfg, err := machine.Preset(pt.Machine)
	if err != nil {
		return resolved{}, err
	}
	cfg = cfg.WithNodes(pt.Nodes)
	mode, _ := core.ParseMode(pt.Mode)
	r := resolved{app: app, pt: pt, cfg: cfg, mode: mode, n: cmp.Or(pt.N, app.N), b: cmp.Or(pt.B, app.B)}
	r.k = pt.PEs
	if r.k == 0 {
		// Memoized by (design family, device, b when the array must
		// divide it): every grid point that leaves PEs unset shares the
		// same search unless it changes one of those axes, so a
		// million-point sweep pays for a handful of PE-array searches
		// instead of one per point.
		key := resolveKey{family: app.Design(1).Name(), device: cfg.Device.Name}
		if app.BlockPEs {
			key.b = r.b
		}
		k, computed := ev.maxk.GetOrCompute(key, func() int { return app.MaxPEs(cfg.Device, r.b) })
		tally.ResolveLookups++
		if computed {
			tally.ResolveSolves++
		}
		r.k = k
	}
	if r.k < 1 {
		return r, fmt.Errorf("no %s PE array fits %s", pt.App, cfg.Device.Name)
	}
	return r, nil
}

// simulate runs the resolved point through the app registry with obs
// attached: the one MethodSim path, shared by evaluate and the span
// archive. The grid's L axis is both lu's depth L and fw's split L1.
func (r resolved) simulate(obs sim.Observer) (core.AppResult, error) {
	return r.app.Run(core.Spec{
		Machine: r.cfg, N: r.n, B: r.b, PEs: r.k, BF: r.pt.BF, L: r.pt.L, L1: r.pt.L,
		Density: r.pt.Density, Mode: r.mode, Observer: obs,
	})
}

// evaluate runs one grid point under the given method. The point's
// memo lookups and solves accumulate in tally, which is merged into
// ev.stats under one lock when the evaluation ends — also when it
// panics, for safeEvaluate to recover above.
func (ev *evaluator) evaluate(pt Point, method string, tally *Stats) Outcome {
	defer func() { ev.charge(*tally) }()
	r, err := ev.resolve(pt, tally)
	if err != nil {
		return fail(err)
	}
	out, err := ev.price(r, tally)
	if err != nil {
		return fail(err)
	}
	if method == MethodModel {
		return out
	}
	// The digest comes from trace's process-wide pool, which every
	// evaluator shares — a per-call Run's, the long-lived serving one,
	// a screened sweep's — so workers reuse warmed edge buffers instead
	// of regrowing them per simulation or per sweep.
	d := trace.GetDigest()
	res, err := r.simulate(d)
	if err != nil {
		trace.PutDigest(d)
		return fail(err)
	}
	return measured(out, res, d)
}

// design returns the placed design's outcome skeleton: PE geometry,
// clock, resource usage and effective DRAM bandwidth.
func (ev *evaluator) design(r resolved, tally *Stats) (Outcome, float64, error) {
	d := r.app.Design(r.k)
	pv, err := ev.placed(d, r.cfg.Device, tally)
	if err != nil {
		return Outcome{}, 0, err
	}
	bd := machine.EffectiveBd(r.cfg.RawFPGADRAMBandwidth, pv.freqHz)
	return Outcome{
		OK: true, K: r.k, Of: 2 * r.k, FfMHz: pv.freqHz / 1e6, // two flops per PE per cycle
		Slices: pv.usage.Slices, BlockRAMs: pv.usage.BlockRAMs, Multipliers: pv.usage.Multipliers,
		BdGBps: bd / 1e9,
	}, bd, nil
}

// price evaluates a resolved point with its app's model half: the
// geometry check, the placed design, then the split and the Section 4.5
// prediction at it, tallying the memo traffic in tally. The model half
// prices with Ff taken from the placed clock in MHz (FfMHz·1e6) but Bd
// from the unrounded clock, exactly as the sweep always has (DESIGN.md
// §15). ev itself is the Memo; the model half returns its memo traffic
// by value, since a tally pointer passed through App.Price's indirect
// call would escape to the heap, one allocation per point.
func (ev *evaluator) price(r resolved, tally *Stats) (Outcome, error) {
	if err := r.app.Check(r.cfg.Nodes, r.n, r.b, r.k); err != nil {
		return Outcome{}, err
	}
	out, bd, err := ev.design(r, tally)
	if err != nil {
		return out, err
	}
	pr, err := r.app.Price(core.Pricing{
		Machine: r.cfg, Proc: r.cfg.Processor(), N: r.n, B: r.b, K: r.k, Ff: out.FfMHz * 1e6, Bd: bd,
		Mode: r.mode, BF: r.pt.BF, L: r.pt.L, L1: r.pt.L, Density: r.pt.Density, Memo: ev,
	})
	tally.PartitionLookups += pr.Lookups
	tally.PartitionSolves += pr.Solves
	if err != nil {
		return out, err
	}
	s := pr.Split
	out.BF, out.BP, out.L, out.L1, out.L2 = s.BF, s.BP, s.L, s.L1, s.L2
	out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pr.Prediction.GFLOPS, pr.Prediction.Seconds, pr.Prediction.GFLOPS
	out.Binding, out.Margin = pr.Binding.String(), pr.Margin
	return out, nil
}

// measured finishes a MethodSim outcome: the simulated split, measured
// throughput, the Section 4.5 prediction, the telemetry overlap
// efficiency, and the dominant phase's measured binding from the
// internal/analysis bottleneck classifier (none when no phase ran). It
// consumes d, the pooled digest the simulation folded its spans into,
// and returns it to the pool, so callers must not touch d afterwards.
func measured(out Outcome, res core.AppResult, d *trace.Digest) Outcome {
	defer trace.PutDigest(d)
	s := res.Split
	out.BF, out.BP, out.L, out.L1, out.L2 = s.BF, s.BP, s.L, s.L1, s.L2
	out.GFLOPS, out.Seconds, out.PredictedGFLOPS = res.GFLOPS, res.Seconds, res.Prediction.GFLOPS
	out.Binding, out.Margin = "", 0
	// The digest's overlap over the run's makespan yields the same
	// efficiency as the run's full telemetry summary, without the
	// per-process and per-resource digest.
	out.OverlapEfficiency = d.Overlap(res.Seconds).Efficiency()
	phases := analysis.DigestPhases(d, map[string]model.Binding{res.Phase: res.Binding})
	if b := busiest(phases); b != nil {
		out.Binding, out.Margin = b.Binding.String(), b.Margin
	}
	return out
}

// busiest returns the labelled phase with the most classified work, or
// nil when no labelled phase ran. phases come in start order, so on a
// tie the phase that starts first wins.
func busiest(phases []analysis.PhaseStats) *analysis.PhaseStats {
	var b *analysis.PhaseStats
	for i := range phases {
		if phases[i].Phase == "" {
			continue
		}
		if b == nil || phases[i].TotalBusy() > b.TotalBusy() {
			b = &phases[i]
		}
	}
	return b
}
