// Command hybridsim runs one co-designed application on a simulated
// reconfigurable computing system and reports its throughput, workload
// partition and resource utilization.
//
// Usage:
//
//	hybridsim -app lu -n 30000 -b 3000                  # paper headline
//	hybridsim -app fw -mode fpga-only                   # a baseline at fw's default n and b
//	hybridsim -app lu -n 300 -b 60 -pes 4 -functional   # with real data
//	hybridsim -app lu -analyze                          # critical path + bottlenecks
//	hybridsim -app fw -machine xt3 -n 6144 -b 256 -pes 8
//	hybridsim -app spmv -n 2048 -density 0.02           # sparse y = Ax, CSR streamed
//	hybridsim -app spmv -n 2048 -density 0.02 -rhs 32   # SpMM: repeated applies, SRAM-resident
//	hybridsim -app lu -faults faults.json -seed 7       # degraded-mode run + resilience report
//	hybridsim -app lu -faults faults.json -obs :9469    # live /metrics + pprof during the run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"codesign/internal/analysis"
	"codesign/internal/cli"
	"codesign/internal/core"
	"codesign/internal/fault"
	"codesign/internal/machine"
	"codesign/internal/obs"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// log is the tool's shared leveled stderr logger (-v/-q adjust it).
var log = cli.NewLogger("hybridsim", os.Stderr)

func main() {
	var o options
	bind(flag.CommandLine, &o)
	log.AddFlags(flag.CommandLine)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.SeedSet = true
		}
	})

	if err := run(o); err != nil {
		log.Errorf("%v", err)
		os.Exit(1)
	}
}

// bind registers every run flag on fs, bound to o's fields.
func bind(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.App, "app", "lu", "application: "+core.AppNames("or", false))
	fs.StringVar(&o.Machine, "machine", "xd1", "machine preset (xd1, xt3, src6, rasc) or a machine JSON `file`")
	fs.IntVar(&o.N, "n", 0, "problem size (0 = the app's default: "+defaults(func(a core.App) int { return a.N })+")")
	fs.IntVar(&o.B, "b", 0, "block size (0 = the app's default: "+defaults(func(a core.App) int { return a.B })+")")
	fs.IntVar(&o.PEs, "pes", 0, "FPGA PE count (0 = largest that fits)")
	fs.StringVar(&o.Mode, "mode", "hybrid", "design: hybrid, processor-only, fpga-only")
	fs.IntVar(&o.BF, "bf", -1, "FPGA share: stripe rows, or operator rows for spmv and cg (-1 = solve the model)")
	fs.IntVar(&o.L, "l", -1, "lu and chol: panel pipeline depth (-1 = solve Eq. 5)")
	fs.IntVar(&o.L1, "l1", -1, "FW: processor ops per phase (-1 = solve Eq. 6)")
	fs.Float64Var(&o.Density, "density", 0, "spmv and cg: operator nonzero density in [0,1] (0 = dense operator)")
	fs.IntVar(&o.RHS, "rhs", 0, "spmv: right-hand sides; >1 runs SpMM as repeated applies (0 = single apply)")
	fs.BoolVar(&o.Functional, "functional", false, "carry real matrices and verify the result")
	fs.Int64Var(&o.Seed, "seed", 1, "functional input seed, or the fault spec seed with -faults")
	fs.StringVar(&o.Faults, "faults", "", "inject faults from spec JSON `file` ("+core.AppNames("and", true)+") and print the resilience report")
	fs.BoolVar(&o.Timeline, "timeline", false, "print a per-process activity timeline (small runs only)")
	fs.BoolVar(&o.Metrics, "metrics", false, "print per-run utilization and the Tp/Tf/Tmem/Tcomm overlap report")
	fs.BoolVar(&o.Analyze, "analyze", false, "print the critical path, per-phase bottleneck attribution and resource timelines")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write a Chrome/Perfetto trace_event JSON trace of the run to `file`")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write the run's telemetry counters and gauges as CSV to `file`")
	fs.StringVar(&o.SpansOut, "spans-out", "", "write the raw typed spans as CSV to `file`")
	fs.StringVar(&o.SpansJSON, "spans-json", "", "write the typed spans with run metadata as JSONL to `file` (tracediff input)")
	fs.StringVar(&o.DiffAgainst, "diff-against", "", "diff this run against a persisted span `file` (JSONL or CSV) and print the differential analysis")
	fs.StringVar(&o.Obs, "obs", "", "serve /metrics, /statusz and pprof on `addr` during the run")
	fs.DurationVar(&o.ObsHold, "obs-hold", 0, "keep the -obs server up this long after the run completes")
}

// options bundles every CLI knob run needs; tests construct it
// directly.
type options struct {
	App       string
	Machine   string
	N, B, PEs int
	Mode      string
	BF, L, L1 int
	// Density is the spmv and cg operator's nonzero density; RHS the
	// number of repeated spmv applies (SpMM).
	Density    float64
	RHS        int
	Functional bool
	Seed       int64
	// SeedSet records whether -seed was passed explicitly; only then
	// does it override the fault spec's own seed.
	SeedSet    bool
	Faults     string
	Timeline   bool
	Metrics    bool
	Analyze    bool
	TraceOut   string
	MetricsOut string
	SpansOut   string
	// SpansJSON persists the span stream with run metadata (JSONL).
	SpansJSON string
	// DiffAgainst diffs this run against a persisted span file.
	DiffAgainst string
	Obs         string
	ObsHold     time.Duration
}

// defaults lists the registered apps' nonzero default sizes for a flag's
// help text.
func defaults(size func(core.App) int) string {
	var out []string
	for _, a := range core.Apps() {
		if v := size(a); v > 0 {
			out = append(out, fmt.Sprintf("%s %d", a.Name, v))
		}
	}
	return strings.Join(out, ", ")
}

// sized returns o with an unset (0) problem or block size replaced by
// the app's registry default.
func (o options) sized(app core.App) options {
	if o.N == 0 {
		o.N = app.N
	}
	if o.B == 0 {
		o.B = app.B
	}
	return o
}

func machineByName(name string) (machine.Config, error) {
	return machine.Resolve(name)
}

func run(o options) error {
	mc, err := machineByName(o.Machine)
	if err != nil {
		return err
	}
	md, err := core.ParseMode(o.Mode)
	if err != nil {
		return err
	}
	fmt.Printf("machine: %s (%d nodes)\n", mc.Name, mc.Nodes)
	app, err := core.LookupApp(o.App)
	if err != nil {
		return err
	}
	o = o.sized(app)

	// -faults runs the app three ways: nominal (the baseline), with the
	// spec's faults under observed-telemetry detection (the run that is
	// printed), and with an oracle detector that knows the spec in
	// advance. Injectors are stateful, so each run gets a fresh one.
	var spec *fault.Spec
	var inj *fault.Injector
	if o.Faults != "" {
		if !app.Faults {
			return fmt.Errorf("-faults supports %s, not %q", core.AppNames("and", true), o.App)
		}
		spec, err = fault.Load(o.Faults)
		if err != nil {
			return err
		}
		if o.SeedSet {
			spec.Seed = o.Seed
		}
		inj, err = fault.New(spec, mc.Nodes)
		if err != nil {
			return err
		}
		fmt.Printf("faults:  %d events from %s (seed %d, detector threshold %.2g, window %gs)\n",
			len(inj.Events()), o.Faults, spec.Seed, inj.Threshold(), inj.Window())
	}

	// -obs publishes live engine counters, fault gauges and core
	// repartition metrics for the duration of the run. reg stays nil
	// otherwise, which keeps every metric site on its no-op path.
	var reg *obs.Registry
	if o.Obs != "" {
		reg = obs.NewRegistry()
		ctr := &sim.Counters{}
		ctr.Publish(reg)
		sim.InstallCounters(ctr)
		defer sim.InstallCounters(nil)
		if inj != nil {
			inj.Publish(reg)
		}
		srv, err := obs.Serve(o.Obs, reg)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		defer srv.Close()
		log.Infof("serving metrics on http://%s/metrics", srv.Addr)
		if o.ObsHold > 0 {
			defer func() {
				log.Infof("run done; holding metrics server for %v", o.ObsHold)
				time.Sleep(o.ObsHold)
			}()
		}
	}

	// Every observer the run feeds: the timeline's raw events and the
	// recorder's spans.
	var observers tee
	if o.Timeline {
		col := &trace.Collector{Limit: 2_000_000}
		observers = append(observers, col)
		defer func() {
			fmt.Println("\nactivity timeline (# = busy):")
			if err := col.WriteTimeline(os.Stdout, 100, 0); err != nil {
				log.Errorf("timeline: %v", err)
			}
		}()
	}

	// The recorder doubles as the span sink for -trace-out, -analyze,
	// -spans-out, -spans-json and -diff-against; -faults records too,
	// so the resilience report can attribute the dilation to phases.
	var rec *trace.Recorder
	if o.TraceOut != "" || o.SpansOut != "" || o.Analyze ||
		o.SpansJSON != "" || o.DiffAgainst != "" || o.Faults != "" {
		rec = trace.NewRecorder()
		observers = append(observers, rec)
	}
	// -metrics-out exports the telemetry summary, so it implies
	// summarization even without the printed -metrics report.
	telemetry := o.Metrics || o.MetricsOut != ""

	// A nil tee inside the interface would still be invoked.
	var obs sim.Observer
	if len(observers) > 0 {
		obs = observers
	}
	s := core.Spec{
		Machine: mc, N: o.N, B: o.B, PEs: o.PEs, BF: o.BF, L: o.L, L1: o.L1, Mode: md,
		Density: o.Density, RHS: o.RHS, Functional: o.Functional, Seed: o.Seed,
		Observer: obs, Telemetry: telemetry, Faults: inj, Metrics: reg,
	}
	r, err := app.Run(s)
	if err != nil {
		return err
	}
	title, details := r.Describe()
	fmt.Println("application:       " + title)
	printCommon(r.Result)
	for _, d := range details {
		fmt.Printf("%-19s%s\n", d.Label+":", d.Text)
	}
	if inj != nil {
		if err := printResilience(app, s, spec, r.Result, rec, len(inj.Events())); err != nil {
			return fmt.Errorf("resilience: %w", err)
		}
	}
	if o.DiffAgainst != "" {
		meta, baseSpans, err := trace.ReadSpansFile(o.DiffAgainst)
		if err != nil {
			return fmt.Errorf("diff-against: %w", err)
		}
		baseLabel := meta.Label
		if baseLabel == "" {
			baseLabel = o.DiffAgainst
		}
		cmp := analysis.Compare(
			analysis.Run{Label: baseLabel, Makespan: meta.Makespan, Spans: baseSpans},
			analysis.Run{Label: "this run", Makespan: r.Seconds, Spans: rec.SpansView(), Expected: r.Expected()},
		)
		fmt.Println()
		if err := cmp.WriteReport(os.Stdout); err != nil {
			return fmt.Errorf("diff-against: %w", err)
		}
	}
	if o.Analyze {
		rep := analysis.Analyze(rec.Spans(), r.Seconds, analysis.Options{Expected: r.Expected()})
		fmt.Println()
		if err := rep.WriteReport(os.Stdout); err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
	}
	if o.MetricsOut != "" {
		if err := writeTo(o.MetricsOut, r.Telemetry.WriteCSV); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		fmt.Printf("metrics:           -> %s\n", o.MetricsOut)
	}
	if o.SpansOut != "" {
		if err := writeTo(o.SpansOut, rec.WriteSpansCSV); err != nil {
			return fmt.Errorf("spans-out: %w", err)
		}
		fmt.Printf("spans:             %d spans -> %s\n", len(rec.Spans()), o.SpansOut)
	}
	if o.SpansJSON != "" {
		meta := trace.Meta{App: o.App, Machine: mc.Name, Label: o.App, Makespan: r.Seconds}
		if err := writeTo(o.SpansJSON, func(w io.Writer) error {
			return rec.WriteSpans(w, meta)
		}); err != nil {
			return fmt.Errorf("spans-json: %w", err)
		}
		fmt.Printf("spans:             %d spans -> %s (JSONL, tracediff input)\n", len(rec.SpansView()), o.SpansJSON)
	}
	if o.TraceOut != "" {
		if err := writeTo(o.TraceOut, rec.WritePerfetto); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Printf("trace:             %d spans -> %s (chrome://tracing, ui.perfetto.dev)\n",
			len(rec.Spans()), o.TraceOut)
	}
	return nil
}

// printResilience re-runs the app fault-free and with an oracle
// detector, then prints the resilience summary for the faulted run
// already in res. The nominal reference records its spans so the
// report can attribute the dilation to phases (rec holds the faulted
// run's spans).
func printResilience(app core.App, s core.Spec, spec *fault.Spec, res *core.Result, rec *trace.Recorder, events int) error {
	// The references rerun the printed run's configuration without its
	// observers, telemetry digest and live metrics.
	s.Telemetry, s.Metrics = false, nil
	ref := func(in *fault.Injector, obs sim.Observer) (float64, error) {
		s.Faults, s.Observer = in, obs
		r, err := app.Run(s)
		if err != nil {
			return 0, err
		}
		return r.Seconds, nil
	}
	nomRec := trace.NewRecorder()
	nominal, err := ref(nil, nomRec)
	if err != nil {
		return fmt.Errorf("nominal reference: %w", err)
	}
	oinj, err := fault.New(spec.WithOracle(), s.Machine.Nodes)
	if err != nil {
		return err
	}
	oracle, err := ref(oinj, nil)
	if err != nil {
		return fmt.Errorf("oracle reference: %w", err)
	}
	r := &analysis.Resilience{
		BaselineSeconds: nominal,
		FaultedSeconds:  res.Seconds,
		OracleSeconds:   oracle,
		DeadNodes:       res.DeadNodes,
		FaultEvents:     events,
	}
	for _, rp := range res.Repartitions {
		r.RepartitionTimes = append(r.RepartitionTimes, rp.Time)
	}
	if rec != nil {
		r.AttributeOverhead(
			analysis.Run{Makespan: nominal, Spans: nomRec.SpansView()},
			analysis.Run{Makespan: res.Seconds, Spans: rec.SpansView()},
		)
	}
	fmt.Println()
	return r.WriteReport(os.Stdout)
}

// writeTo creates path and streams write into it, closing cleanly.
func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printCommon(r *core.Result) {
	fmt.Printf("design:            %s\n", r.Mode)
	fmt.Printf("problem:           n=%d b=%d\n", r.N, r.B)
	fmt.Printf("simulated latency: %.3f s\n", r.Seconds)
	fmt.Printf("throughput:        %.3f GFLOPS (%.3g flops)\n", r.GFLOPS, r.Flops)
	fmt.Printf("network traffic:   %.2f GB\n", float64(r.NetworkBytes)/1e9)
	fmt.Printf("coordinations:     %d register handshakes\n", r.Coordinations)
	fmt.Printf("utilization:       cpu %.1f%%  fpga %.1f%%\n",
		100*r.Utilization(r.CPUBusy), 100*r.Utilization(r.FPGABusy))
	for _, rp := range r.Repartitions {
		cells := fmt.Sprintf("repartition:       t=%.6gs iter %d (%s, %d live)", rp.Time, rp.Iteration, rp.Reason, rp.Live)
		if rp.L1 > 0 || rp.L2 > 0 {
			fmt.Printf("%s l1=%d l2=%d\n", cells, rp.L1, rp.L2)
		} else {
			fmt.Printf("%s bf=%d bp=%d l=%d\n", cells, rp.BF, rp.BP, rp.L)
		}
	}
	if len(r.DeadNodes) > 0 {
		fmt.Printf("dead nodes:        %v\n", r.DeadNodes)
	}
	if r.Checked {
		fmt.Printf("functional check:  max residual %.3g vs sequential reference\n", r.MaxResidual)
	}
	if r.Telemetry != nil {
		fmt.Println()
		if err := r.Telemetry.WriteReport(os.Stdout); err != nil {
			log.Errorf("metrics: %v", err)
		}
	}
}

// tee fans a run's telemetry stream out to several observers.
type tee []sim.Observer

func (t tee) Event(at float64, proc, action string) {
	for _, o := range t {
		o.Event(at, proc, action)
	}
}

func (t tee) Span(s sim.SpanEvent) {
	for _, o := range t {
		o.Span(s)
	}
}
