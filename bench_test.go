package codesign

// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus the DESIGN.md ablations and microbenchmarks
// of the substrates. Custom metrics report what the paper reports:
// simulated GFLOPS and simulated seconds (host ns/op measures only how
// fast the simulator itself runs).

import (
	"context"
	"math/rand"
	"testing"

	"codesign/internal/analysis"
	"codesign/internal/core"
	"codesign/internal/cpu"
	"codesign/internal/exper"
	"codesign/internal/fpmath"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/obs"
	"codesign/internal/serve"
	"codesign/internal/sim"
	"codesign/internal/sweep"
)

// BenchmarkBaselineDrift re-runs the headline suite and reports its
// drift against the committed BENCH_baseline.json: the number of
// diverging metrics and the worst relative delta. On an unchanged tree
// both are zero; after a behavior change the numbers quantify it before
// the baseline is regenerated (see EXPERIMENTS.md "Benchmark
// baseline").
func BenchmarkBaselineDrift(b *testing.B) {
	old, err := analysis.ReadBaselineFile(baselineFile)
	if err != nil {
		b.Fatal(err)
	}
	var deltas []analysis.Delta
	for i := 0; i < b.N; i++ {
		fresh, err := exper.Headline()
		if err != nil {
			b.Fatal(err)
		}
		deltas = analysis.Diff(old, fresh, 0)
	}
	worst := 0.0
	for _, d := range deltas {
		if d.Rel > worst {
			worst = d.Rel
		}
	}
	b.ReportMetric(float64(len(deltas)), "diverging_metrics")
	b.ReportMetric(worst, "worst_rel_delta")
}

// BenchmarkTable1 regenerates Table 1: opLU/opL/opU latencies at b=3000.
func BenchmarkTable1(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows := cpu.Table1(cpu.Opteron22(), 3000)
		last = rows[0].LatencyS
	}
	b.ReportMetric(last, "opLU_s")
}

// BenchmarkFig5 regenerates Figure 5's optimum point: one 3000×3000
// block multiplication at bf=1280 on 6 nodes.
func BenchmarkFig5(b *testing.B) {
	var lat float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunOpMM(machine.XD1(), 3000, 8, 1280)
		if err != nil {
			b.Fatal(err)
		}
		lat = r.Seconds
	}
	b.ReportMetric(lat, "sim_s")
}

// BenchmarkFig5Sweep runs the full bf sweep of Figure 5.
func BenchmarkFig5Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for bf := 0; bf <= 3000; bf += 600 {
			if _, err := core.RunOpMM(machine.XD1(), 3000, 8, bf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6 regenerates Figure 6's optimum point: iteration 0 of
// the n=30000 factorization at l=3.
func BenchmarkFig6(b *testing.B) {
	var lat float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		lat = r.IterationSeconds[0]
	}
	b.ReportMetric(lat, "iter0_s")
}

// BenchmarkFig7 regenerates Figure 7's optimum point: one FW iteration
// at l1=2 (b=256, n=18432).
func BenchmarkFig7(b *testing.B) {
	var lat float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunFW(core.FWConfig{N: 18432, B: 256, L1: 2, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		lat = r.Seconds / float64(len(r.IterationSeconds))
	}
	b.ReportMetric(lat, "iter_s")
}

// BenchmarkFig8 regenerates Figure 8's end point: LU GFLOPS at n/b=10.
func BenchmarkFig8(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		g = r.GFLOPS
	}
	b.ReportMetric(g, "sim_GFLOPS")
}

// BenchmarkFig9LU regenerates Figure 9's LU bars: hybrid and both
// baselines.
func BenchmarkFig9LU(b *testing.B) {
	metrics := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range []core.Mode{core.Hybrid, core.ProcessorOnly, core.FPGAOnly} {
			r, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: m})
			if err != nil {
				b.Fatal(err)
			}
			metrics[m.String()] = r.GFLOPS
		}
	}
	b.ReportMetric(metrics["hybrid"], "hybrid_GFLOPS")
	b.ReportMetric(metrics["processor-only"], "cpu_GFLOPS")
	b.ReportMetric(metrics["fpga-only"], "fpga_GFLOPS")
}

// BenchmarkFig9FW regenerates Figure 9's Floyd-Warshall bars.
func BenchmarkFig9FW(b *testing.B) {
	metrics := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range []core.Mode{core.Hybrid, core.ProcessorOnly, core.FPGAOnly} {
			r, err := core.RunFW(core.FWConfig{N: 18432, B: 256, L1: -1, Mode: m})
			if err != nil {
				b.Fatal(err)
			}
			metrics[m.String()] = r.GFLOPS
		}
	}
	b.ReportMetric(metrics["hybrid"], "hybrid_GFLOPS")
	b.ReportMetric(metrics["processor-only"], "cpu_GFLOPS")
	b.ReportMetric(metrics["fpga-only"], "fpga_GFLOPS")
}

// BenchmarkPrediction regenerates the Section 6.2 accuracy study.
func BenchmarkPrediction(b *testing.B) {
	var luRatio, fwRatio float64
	for i := 0; i < b.N; i++ {
		lu, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		luRatio = lu.GFLOPS / lu.Prediction.GFLOPS
		fw, err := core.RunFW(core.FWConfig{N: 18432, B: 256, L1: -1, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		fwRatio = fw.GFLOPS / fw.Prediction.GFLOPS
	}
	b.ReportMetric(luRatio, "lu_ratio")
	b.ReportMetric(fwRatio, "fw_ratio")
}

// --- Ablation benches (DESIGN.md Section 5) ---

// BenchmarkOverlapAblation measures the cost of disabling stripe
// pipelining in the LU hybrid.
func BenchmarkOverlapAblation(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		r1, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid, DisableStripeOverlap: true})
		if err != nil {
			b.Fatal(err)
		}
		on, off = r1.Seconds, r2.Seconds
	}
	b.ReportMetric(on, "overlap_s")
	b.ReportMetric(off, "no_overlap_s")
}

// BenchmarkSplitAblation measures whole-task vs split-task opMM.
func BenchmarkSplitAblation(b *testing.B) {
	var split, whole float64
	for i := 0; i < b.N; i++ {
		r1, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid, WholeTaskOpMM: true})
		if err != nil {
			b.Fatal(err)
		}
		split, whole = r1.GFLOPS, r2.GFLOPS
	}
	b.ReportMetric(split, "split_GFLOPS")
	b.ReportMetric(whole, "whole_GFLOPS")
}

// BenchmarkAtomicRoutineAblation measures interruptible vs atomic panel
// routines.
func BenchmarkAtomicRoutineAblation(b *testing.B) {
	var atomic, async float64
	for i := 0; i < b.N; i++ {
		r1, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid, InterruptibleRoutines: true})
		if err != nil {
			b.Fatal(err)
		}
		atomic, async = r1.Seconds, r2.Seconds
	}
	b.ReportMetric(atomic, "atomic_s")
	b.ReportMetric(async, "interruptible_s")
}

// BenchmarkSolverVsSweep compares the Equation (4) solver against a
// brute-force bf sweep of the stripe-granular simulation.
func BenchmarkSolverVsSweep(b *testing.B) {
	var solver, sweepBest float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunOpMM(machine.XD1(), 3000, 8, 1280) // solver's answer
		if err != nil {
			b.Fatal(err)
		}
		solver = r.Seconds
		best := 1e18
		for bf := 0; bf <= 3000; bf += 200 {
			rr, err := core.RunOpMM(machine.XD1(), 3000, 8, bf)
			if err != nil {
				b.Fatal(err)
			}
			if rr.Seconds < best {
				best = rr.Seconds
			}
		}
		sweepBest = best
	}
	b.ReportMetric(solver, "solver_s")
	b.ReportMetric(sweepBest, "sweep_best_s")
}

// BenchmarkFunctionalOverhead measures the cost of carrying real data
// through the simulated machine.
func BenchmarkFunctionalOverhead(b *testing.B) {
	b.Run("timing-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunLU(core.LUConfig{N: 300, B: 60, PEs: 4, BF: -1, L: 2, Mode: core.Hybrid}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("functional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunLU(core.LUConfig{N: 300, B: 60, PEs: 4, BF: -1, L: 2, Mode: core.Hybrid, Functional: true, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate microbenchmarks ---

// BenchmarkGemmTiled measures the tiled host GEMM kernel.
func BenchmarkGemmTiled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := matrix.Random(256, 256, rng)
	bb := matrix.Random(256, 256, rng)
	c := matrix.New(256, 256)
	flops := 2.0 * 256 * 256 * 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.Gemm(1, a, bb, 0, c)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "host_GFLOPS")
}

// BenchmarkGemmParallel measures the parallel host GEMM kernel.
func BenchmarkGemmParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := matrix.Random(256, 256, rng)
	bb := matrix.Random(256, 256, rng)
	c := matrix.New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.GemmParallel(1, a, bb, 0, c, 0)
	}
}

// BenchmarkFWKernelHost measures the scalar FW kernel (the paper's 190
// MFLOPS routine) on the host.
func BenchmarkFWKernelHost(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := matrix.RandomGraph(256, 0.5, rng)
	flops := 2.0 * 256 * 256 * 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := d.Clone()
		matrix.FWKernel(work)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "host_MFLOPS")
}

// BenchmarkFPMathAdd measures the bit-exact adder core.
func BenchmarkFPMathAdd(b *testing.B) {
	x := fpmath.Add(0x3FF0000000000001, 0x3CA0000000000000)
	for i := 0; i < b.N; i++ {
		x = fpmath.Add(x, 0x3CA0000000000000)
	}
	_ = x
}

// BenchmarkFPMathMul measures the bit-exact multiplier core.
func BenchmarkFPMathMul(b *testing.B) {
	x := uint64(0x3FF0000000000001)
	for i := 0; i < b.N; i++ {
		x = fpmath.Mul(x, 0x3FF0000000000001)
	}
	_ = x
}

// BenchmarkSimEngine measures raw event throughput of the DES engine.
func BenchmarkSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.New()
		for j := 0; j < 8; j++ {
			e.Go("p", func(p *sim.Proc) {
				for k := 0; k < 1000; k++ {
					p.Wait(1)
				}
			})
		}
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(8000*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLUFullSimulation measures host time to simulate the full
// paper-scale factorization.
func BenchmarkLUFullSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFWFullSimulation measures host time to simulate the n=18432
// Floyd-Warshall run.
func BenchmarkFWFullSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunFW(core.FWConfig{N: 18432, B: 256, L1: -1, Mode: core.Hybrid}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension-application benches ---

// BenchmarkExtensionMM runs the hybrid matrix multiplication extension.
func BenchmarkExtensionMM(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunMM(core.MMConfig{N: 6144, BF: -1, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		g = r.GFLOPS
	}
	b.ReportMetric(g, "sim_GFLOPS")
}

// BenchmarkExtensionCholesky runs the hybrid Cholesky extension.
func BenchmarkExtensionCholesky(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunCholesky(core.CholConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		g = r.GFLOPS
	}
	b.ReportMetric(g, "sim_GFLOPS")
}

// BenchmarkSensitivitySweep runs the system-parameter sensitivity study.
func BenchmarkSensitivitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Sensitivity(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFPMathSqrt measures the bit-exact square-root core.
func BenchmarkFPMathSqrt(b *testing.B) {
	x := uint64(0x4000000000000000)
	for i := 0; i < b.N; i++ {
		_ = fpmath.Sqrt(x + uint64(i&1023))
	}
}

// BenchmarkExtensionQR runs the hybrid Householder QR extension.
func BenchmarkExtensionQR(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunQR(core.QRConfig{N: 30000, B: 3000, BF: -1, Mode: core.Hybrid})
		if err != nil {
			b.Fatal(err)
		}
		g = r.GFLOPS
	}
	b.ReportMetric(g, "sim_GFLOPS")
}

// BenchmarkExtensionCG runs the hybrid conjugate-gradient extension.
func BenchmarkExtensionCG(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunCG(core.CGConfig{N: 512, RowsFPGA: -1, Mode: core.Hybrid, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		g = r.GFLOPS
	}
	b.ReportMetric(g, "sim_GFLOPS")
}

// BenchmarkSolveCached measures the serve layer's solve path on both
// sides of the cache (DESIGN.md §12): "hit" re-asks one canonical
// query every iteration, so each solve is an LRU hit in the
// read-through cache; "miss" asks a never-before-seen partition every
// iteration, so each solve runs a full model evaluation and inserts
// the outcome. The gap between the two is what the cache buys a
// duplicate-heavy serving workload.
func BenchmarkSolveCached(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		svc := serve.NewService(serve.Config{}, obs.NewRegistry())
		defer svc.Close()
		req := serve.SolveRequest{App: "lu"}
		if _, err := svc.Solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Solve(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Source != "cache" {
				b.Fatalf("source = %q, want cache", resp.Source)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		svc := serve.NewService(serve.Config{CacheBound: -1}, obs.NewRegistry())
		defer svc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bf, l := 1+i%3000, 1+i/3000
			resp, err := svc.Solve(context.Background(), serve.SolveRequest{App: "lu", BF: &bf, L: &l})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Source != "computed" {
				b.Fatalf("source = %q, want computed", resp.Source)
			}
		}
	})
}

// BenchmarkDesignSpaceSweep exercises the parallel sweep engine under
// both evaluation methods and reports the headline of the best design
// each grid finds.
//
// The "model" variant evaluates a 126-point LU grid (21 bf values x 6
// pipeline depths) with the closed-form model only — microseconds per
// point, dominated by the sweep machinery itself. The "sim" variant
// runs a 24-point reduced-size LU grid through full discrete-event
// simulations, so its wall-clock time is dominated by the sim engine's
// event loop; it is the headline number tracked in BENCH_speed.json.
func BenchmarkDesignSpaceSweep(b *testing.B) {
	run := func(b *testing.B, g sweep.Grid) {
		var best float64
		points := 0
		for i := 0; i < b.N; i++ {
			res, err := sweep.Run(context.Background(), g, sweep.Options{})
			if err != nil {
				b.Fatal(err)
			}
			best = res.Outcomes[res.Best()].GFLOPS
			points = res.Stats.Points
		}
		b.ReportMetric(float64(points), "points")
		b.ReportMetric(best, "best_sim_GFLOPS")
	}
	b.Run("model", func(b *testing.B) {
		bf := make([]int, 0, 21)
		for v := 0; v <= 3000; v += 150 {
			bf = append(bf, v)
		}
		run(b, sweep.Grid{Apps: []string{"lu"}, BF: bf, L: []int{-1, 1, 2, 3, 4, 6}})
	})
	b.Run("sim", func(b *testing.B) {
		run(b, sweep.Grid{
			Apps: []string{"lu"},
			N:    []int{600}, B: []int{120},
			BF:     []int{-1, 0, 30, 60, 90, 120},
			L:      []int{-1, 1, 2, 4},
			Method: "sim",
		})
	})
}

// BenchmarkSpMVSweep runs the sparse extension's density axis through
// full simulations: a spmv grid spanning the dense regime (all rows on
// the processor, Op*Fp-bound) and the CSR regime (all rows streamed
// through the FPGA, Bd-bound) across the three design variants. Each
// point takes its operator from the process-wide SpMV input memo,
// solves the Equation (1) row split, and verifies the split apply bit
// for bit against the operator's sequential Apply. The b.N = 1 probe
// run that testing makes before the timed runs generates the three
// CSR operators, so every timed iteration finds them memoized: ns/op
// tracks the sparse pipeline without CSR generation
// (BenchmarkRandomSparse measures that). The dense operator is a
// matrix.RandomDenseOp, whose entries each dense point regenerates as
// it applies, so that cost stays in ns/op.
// Tracked in BENCH_speed.json next to the DesignSpaceSweep sim
// headline.
func BenchmarkSpMVSweep(b *testing.B) {
	g := sweep.Grid{
		Apps:    []string{"spmv"},
		N:       []int{512},
		Density: []float64{0, 0.02, 0.05, 0.1},
		Modes:   []string{"hybrid", "processor-only", "fpga-only"},
		Method:  "sim",
	}
	var dense, sparse float64
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(context.Background(), g, sweep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for j, o := range res.Outcomes {
			if !o.OK || res.Points[j].Mode != "hybrid" {
				continue
			}
			if res.Points[j].Density == 0 {
				dense = o.GFLOPS
			} else if res.Points[j].Density == 0.1 {
				sparse = o.GFLOPS
			}
		}
	}
	b.ReportMetric(dense, "dense_GFLOPS")
	b.ReportMetric(sparse, "sparse_GFLOPS")
}

// screenedSweepGrid builds the reference grid for BenchmarkScreenedSweep:
// a dense 12040-point matrix-multiplication design space (5 problem
// sizes x 4 PE counts x 602 row splits) evaluated with the sim method.
// The mm task split has no fixed panel term, so the closed-form model
// varies strictly with every bf step — the model can rank the whole
// axis, which is the regime two-stage screening is built for: thousands
// of interior points ranked by a microsecond model pass instead of a
// millisecond discrete-event simulation each. (LU grids plateau across
// bf at panel-dominated sizes and screening degrades to refining the
// plateau; see DESIGN.md §13.)
func screenedSweepGrid() sweep.Grid {
	bf := make([]int, 0, 602)
	bf = append(bf, -1)
	for v := 0; v <= 600; v++ {
		bf = append(bf, v)
	}
	return sweep.Grid{
		Apps:   []string{"mm"},
		N:      []int{480, 600, 720, 840, 960},
		PEs:    []int{2, 4, 6, 8},
		BF:     bf,
		L:      []int{-1},
		Method: "sim",
	}
}

// BenchmarkScreenedSweep prices two-stage screening against a full
// simulation sweep of the same >=10k-point grid (DESIGN.md §13). The
// "full" variant simulates every feasible point; the "screened" variant
// model-screens the grid and simulates only the surviving candidates
// (frontier + margin band + axis neighbors). Both ns/op figures are
// recorded in BENCH_speed.json: their ratio is the wall-clock reduction
// the pipeline buys, and CI's sweep-scale job separately proves the
// screened frontier matches the full-sim frontier on this grid's
// reference subgrid.
func BenchmarkScreenedSweep(b *testing.B) {
	g := screenedSweepGrid()
	if n := g.NumPoints(); n < 10000 {
		b.Fatalf("reference grid has %d points, want >= 10000", n)
	}
	frontier := func(res *sweep.Result) map[int]bool {
		set := make(map[int]bool, len(res.ParetoIndices))
		for _, i := range res.ParetoIndices {
			set[res.Points[i].Index] = true
		}
		return set
	}
	var fullFrontier map[int]bool
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sweep.Run(context.Background(), g, sweep.Options{})
			if err != nil {
				b.Fatal(err)
			}
			fullFrontier = frontier(res)
		}
		b.ReportMetric(float64(g.NumPoints()), "points")
		b.ReportMetric(float64(len(fullFrontier)), "frontier")
	})
	b.Run("screened", func(b *testing.B) {
		var sc sweep.ScreenSummary
		var got map[int]bool
		for i := 0; i < b.N; i++ {
			res, err := sweep.RunScreened(context.Background(), g, sweep.ScreenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sc = *res.Screen
			got = frontier(res)
		}
		if sc.Candidates*5 > sc.Points {
			b.Fatalf("screening refined %d of %d points — pruning too weak for a 5x win", sc.Candidates, sc.Points)
		}
		// When the full variant ran first (the default), the speedup must
		// not have cost frontier fidelity.
		if fullFrontier != nil {
			if len(got) != len(fullFrontier) {
				b.Fatalf("screened frontier has %d points, full has %d", len(got), len(fullFrontier))
			}
			for idx := range fullFrontier {
				if !got[idx] {
					b.Fatalf("full-sim frontier point index=%d missing from screened frontier", idx)
				}
			}
		}
		b.ReportMetric(float64(sc.Points), "points")
		b.ReportMetric(float64(sc.Candidates), "sim_candidates")
	})
}
