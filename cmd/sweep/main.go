// Command sweep explores the co-design space: it enumerates a
// parameter grid over applications, machine presets, node counts,
// problem/block sizes, PE-array widths and partition overrides,
// evaluates every point in parallel with the closed-form design model
// (or the full simulation with -method sim), and reports the Pareto
// frontier (GFLOPS vs. FPGA slices vs. DRAM bandwidth) plus per-axis
// sensitivity tables.
//
// Usage:
//
//	sweep -pes 2,4,6,8 -out sweep.json            # LU PE-array sweep on the XD1
//	sweep -apps lu,fw -machines xd1,xt3 -csv sweep.csv
//	sweep -grid grid.json -workers 4              # declarative JSON grid
//	sweep -apps mm -n 3072,6144,12288 -method sim # simulate, don't model
//	sweep -grid grid.json -progress               # live stderr ticker with ETA
//	sweep -grid grid.json -obs 127.0.0.1:9469     # serve /metrics + pprof while sweeping
//	sweep -grid grid.json -method sim -screen     # model-screen the grid, sim only frontier candidates
//
// The JSON/CSV output is deterministic: identical grids produce
// byte-identical files regardless of -workers; neither -progress nor
// -obs changes the result bytes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"codesign/internal/cli"
	"codesign/internal/obs"
	"codesign/internal/sim"
	"codesign/internal/sweep"
)

func main() {
	var o options
	flag.StringVar(&o.GridFile, "grid", "", "JSON grid description `file` (\"-\" = stdin); overrides the axis flags")
	flag.StringVar(&o.Apps, "apps", "lu", "comma list of applications: "+strings.Join(sweep.Apps(), ", "))
	flag.StringVar(&o.Machines, "machines", "xd1", "comma list of machine presets: xd1, xt3, src6, rasc")
	flag.StringVar(&o.Modes, "modes", "hybrid", "comma list of designs: hybrid, processor-only, fpga-only")
	flag.StringVar(&o.Nodes, "nodes", "0", "comma list of node counts (0 = preset default)")
	flag.StringVar(&o.N, "n", "0", "comma list of problem sizes (0 = app paper size)")
	flag.StringVar(&o.Density, "density", "0", "comma list of spmv operator densities in [0,1] (0 = dense operator)")
	flag.StringVar(&o.B, "b", "0", "comma list of block sizes (0 = app paper size)")
	flag.StringVar(&o.PEs, "pes", "0", "comma list of PE-array sizes (0 = largest that fits)")
	flag.StringVar(&o.BF, "bf", "-1", "comma list of LU/MM FPGA row shares (-1 = solve Eq. 4 / Eq. 1)")
	flag.StringVar(&o.L, "l", "-1", "comma list of LU pipeline depths / FW l1 (-1 = solve Eq. 5 / Eq. 6)")
	flag.StringVar(&o.Method, "method", sweep.MethodModel, "evaluator: model (closed-form, fast) or sim (full simulation)")
	flag.BoolVar(&o.Screen, "screen", false, "two-stage sweep: model-screen the full grid, then evaluate only Pareto candidates with -method")
	flag.Float64Var(&o.RefineMargin, "refine-margin", 0, "screening dominance margin (0 = default 0.1); larger keeps more candidates")
	flag.IntVar(&o.Workers, "workers", 0, "worker pool size (omit for GOMAXPROCS)")
	flag.StringVar(&o.JSONOut, "out", "", "write full results as JSON to `file` (\"-\" = stdout)")
	flag.StringVar(&o.CSVOut, "csv", "", "write per-point results as CSV to `file` (\"-\" = stdout)")
	flag.StringVar(&o.ArchiveSpans, "archive-spans", "", "re-simulate the Pareto frontier and persist each point's spans as JSONL under `dir` (tracediff inputs)")
	flag.BoolVar(&o.Quiet, "q", false, "suppress the frontier/summary report and progress logging")
	flag.BoolVar(&o.Verbose, "v", false, "verbose: also log debug detail")
	flag.BoolVar(&o.Progress, "progress", false, "log live progress with ETA to stderr")
	flag.StringVar(&o.Obs, "obs", "", "serve /metrics, /statusz and pprof on `addr` while sweeping")
	flag.DurationVar(&o.ObsHold, "obs-hold", 0, "keep the -obs server up this long after the sweep completes")
	flag.Parse()
	// The unset flag's 0 means "auto-size to GOMAXPROCS"; an explicit
	// -workers must name a real pool size.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" && o.Workers <= 0 {
			fmt.Fprintf(os.Stderr, "sweep: -workers must be a positive pool size, got %d (omit the flag to auto-size)\n", o.Workers)
			os.Exit(2)
		}
	})

	o.Log = cli.NewLogger("sweep", os.Stderr)
	if err := run(o, os.Stdout); err != nil {
		o.Log.Errorf("%v", err)
		os.Exit(1)
	}
}

// options bundles every CLI knob run needs; tests construct it
// directly.
type options struct {
	GridFile string
	Apps     string
	Machines string
	Modes    string
	Nodes    string
	N        string
	Density  string
	B        string
	PEs      string
	BF       string
	L        string
	Method   string
	// Screen enables the two-stage pipeline; RefineMargin is its
	// dominance band (0 = sweep.DefaultRefineMargin).
	Screen       bool
	RefineMargin float64
	Workers      int
	JSONOut      string
	CSVOut       string
	// ArchiveSpans persists the frontier's span streams under a
	// directory for later differential analysis.
	ArchiveSpans string
	Quiet        bool
	Verbose      bool
	Progress     bool
	Obs          string
	ObsHold      time.Duration
	Log          *cli.Logger
	// obsReady, when non-nil, receives the bound -obs listen address
	// before the sweep starts (tests use it with an ephemeral :0 port).
	obsReady func(addr string)
	// obsDone, when non-nil, receives the same address after the sweep
	// and before the server closes, so a scrape sees the finished run.
	obsDone func(addr string)
}

// grid builds the sweep grid: from the -grid file when given,
// otherwise from the comma-list axis flags.
func (o options) grid() (sweep.Grid, error) {
	if o.GridFile != "" {
		r := io.Reader(os.Stdin)
		if o.GridFile != "-" {
			f, err := os.Open(o.GridFile)
			if err != nil {
				return sweep.Grid{}, err
			}
			defer f.Close()
			r = f
		}
		return sweep.ReadGrid(r)
	}
	g := sweep.Grid{
		Apps:     splitList(o.Apps),
		Machines: splitList(o.Machines),
		Modes:    splitList(o.Modes),
		Method:   o.Method,
	}
	var err error
	for _, axis := range []struct {
		dst  *[]int
		flag string
		raw  string
	}{
		{&g.Nodes, "nodes", o.Nodes}, {&g.N, "n", o.N}, {&g.B, "b", o.B},
		{&g.PEs, "pes", o.PEs}, {&g.BF, "bf", o.BF}, {&g.L, "l", o.L},
	} {
		if *axis.dst, err = splitInts(axis.raw); err != nil {
			return g, fmt.Errorf("-%s: %w", axis.flag, err)
		}
	}
	if g.Density, err = splitFloats(o.Density); err != nil {
		return g, fmt.Errorf("-density: %w", err)
	}
	return g, g.Validate()
}

func run(o options, stdout io.Writer) error {
	log := o.Log
	if log == nil {
		log = cli.NewLogger("sweep", os.Stderr)
	}
	switch {
	case o.Quiet:
		log.SetLevel(slog.LevelError)
	case o.Verbose:
		log.SetLevel(slog.LevelDebug)
	}

	if o.Workers < 0 {
		return fmt.Errorf("-workers must be a positive pool size, got %d (omit the flag to auto-size)", o.Workers)
	}
	if o.RefineMargin != 0 && !o.Screen {
		return fmt.Errorf("-refine-margin only applies with -screen")
	}
	g, err := o.grid()
	if err != nil {
		return err
	}

	// Both -progress and -obs hang off the same OnProgress hook; the
	// sinks compose so neither knows about the other.
	var sinks []func(sweep.Progress)
	if o.Progress {
		sinks = append(sinks, progressTicker(log, time.Second))
	}
	if o.Obs != "" {
		reg := obs.NewRegistry()
		sinks = append(sinks, obsProgressSink(reg, g.NumPoints()))
		// Engines are constructed deep inside core.Run*, so the only
		// way to count them is the process-wide default sink.
		ctr := &sim.Counters{}
		ctr.Publish(reg)
		sim.InstallCounters(ctr)
		defer sim.InstallCounters(nil)
		srv, err := obs.Serve(o.Obs, reg)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		defer srv.Close()
		log.Infof("serving metrics on http://%s/metrics", srv.Addr)
		if o.obsReady != nil {
			o.obsReady(srv.Addr)
		}
		if o.obsDone != nil {
			defer o.obsDone(srv.Addr)
		}
		if o.ObsHold > 0 {
			defer func() {
				log.Infof("sweep done; holding metrics server for %v", o.ObsHold)
				time.Sleep(o.ObsHold)
			}()
		}
	}
	opts := sweep.Options{Workers: o.Workers}
	if len(sinks) > 0 {
		opts.OnProgress = func(p sweep.Progress) {
			for _, sink := range sinks {
				sink(p)
			}
		}
	}

	var res *sweep.Result
	if o.Screen {
		res, err = sweep.RunScreened(context.Background(), g,
			sweep.ScreenOptions{Options: opts, RefineMargin: o.RefineMargin})
	} else {
		res, err = sweep.Run(context.Background(), g, opts)
	}
	if err != nil {
		return err
	}
	if o.JSONOut != "" {
		if err := writeTo(o.JSONOut, stdout, res.WriteJSON); err != nil {
			return fmt.Errorf("out: %w", err)
		}
	}
	if o.CSVOut != "" {
		if err := writeTo(o.CSVOut, stdout, res.WriteCSV); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}
	if o.ArchiveSpans != "" {
		paths, err := sweep.ArchiveFrontierSpans(res, o.ArchiveSpans)
		if err != nil {
			return fmt.Errorf("archive-spans: %w", err)
		}
		log.Infof("archived %d frontier span files under %s", len(paths), o.ArchiveSpans)
	}
	if o.Quiet {
		return nil
	}
	s := res.Stats
	if sc := res.Screen; sc != nil {
		fmt.Fprintf(stdout, "screened %d points (%d infeasible): %d frontier + %d band + %d neighbors = %d candidates (margin %.2f)\n",
			sc.Points, sc.Infeasible, sc.Frontier, sc.Band, sc.Neighbors, sc.Candidates, sc.Margin)
	}
	fmt.Fprintf(stdout, "swept %d points (%d infeasible) with method=%s\n",
		s.Points, s.Errors, res.Grid.Method)
	for _, line := range infeasibleByAxis(res) {
		fmt.Fprintf(stdout, "  infeasible by %s\n", line)
	}
	fmt.Fprintf(stdout, "memoization: %d/%d placements solved, %d/%d partition solves\n",
		s.PlaceSolves, s.PlaceLookups, s.PartitionSolves, s.PartitionLookups)
	fmt.Fprintf(stdout, "\npareto frontier (%d points):\n", len(res.ParetoIndices))
	if err := res.WriteFrontier(stdout); err != nil {
		return err
	}
	if best := res.Best(); best >= 0 {
		o := res.Outcomes[best]
		fmt.Fprintf(stdout, "\nbest throughput: point %d — %.3f GFLOPS (k=%d, Of=%d, Ff=%.2f MHz, binding %s)\n",
			best, o.GFLOPS, o.K, o.Of, o.FfMHz, o.Binding)
	}
	for _, tab := range res.Sensitivity {
		fmt.Fprintf(stdout, "\nsensitivity to %s:\n", tab.Param)
		fmt.Fprintf(stdout, "  %-12s %6s %6s %12s %12s\n", tab.Param, "points", "ok", "best GFLOPS", "mean GFLOPS")
		for _, row := range tab.Rows {
			fmt.Fprintf(stdout, "  %-12s %6d %6d %12.3f %12.3f\n",
				row.Value, row.Count, row.OK, row.BestGFLOPS, row.MeanGFLOPS)
		}
	}
	return nil
}

// infeasibleByAxis formats per-axis-value infeasibility counts from
// the sensitivity tables, one "axis: value=count ..." line per axis
// that both varies and has infeasible values. It surfaces in the text
// summary what was previously visible only in the JSON output.
func infeasibleByAxis(res *sweep.Result) []string {
	var lines []string
	for _, tab := range res.Sensitivity {
		var parts []string
		for _, row := range tab.Rows {
			if bad := row.Count - row.OK; bad > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", row.Value, bad))
			}
		}
		if len(parts) > 0 {
			lines = append(lines, fmt.Sprintf("%s: %s", tab.Param, strings.Join(parts, " ")))
		}
	}
	return lines
}

// writeTo streams write into path, with "-" meaning stdout.
func writeTo(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
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

// splitList splits a comma list, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// splitInts parses a comma list of integers.
func splitInts(s string) ([]int, error) {
	var out []int
	for _, v := range splitList(s) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", v)
		}
		out = append(out, n)
	}
	return out, nil
}

// splitFloats parses a comma list of floats (the -density axis).
func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, v := range splitList(s) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", v)
		}
		out = append(out, f)
	}
	return out, nil
}
