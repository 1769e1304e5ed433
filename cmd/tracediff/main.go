// Command tracediff explains the runtime difference between two runs.
// It takes either two persisted span files (JSONL from WriteSpans /
// hybridsim -spans-json, or CSV from hybridsim -spans-out, old or new
// header) or a machine/app configuration to simulate inline on both
// sides, and runs the differential analysis engine: the makespan delta
// is decomposed into per-phase and per-resource busy-vs-wait
// contributions that sum exactly to the attributed total, the two
// critical paths are diffed, and bottleneck-class transitions are
// reported against the Eq. 4-6 predictions.
//
// Usage:
//
//	tracediff base.spans cand.spans              # diff two persisted runs
//	tracediff -app lu -cand-faults spec.json     # nominal vs faulted, inline
//	tracediff -app lu -pes 4 -cand-pes 8         # design A vs design B, inline
//	tracediff -app fw -cand-machine xt3 -out d.json
//
// The human table goes to stdout; -out writes byte-deterministic JSON
// (two identical invocations produce identical bytes).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"codesign/internal/analysis"
	"codesign/internal/cli"
	"codesign/internal/core"
	"codesign/internal/fault"
	"codesign/internal/machine"
	"codesign/internal/trace"
)

// log is the tool's shared leveled stderr logger (-v/-q adjust it).
var log = cli.NewLogger("tracediff", os.Stderr)

func main() {
	var o options
	flag.StringVar(&o.App, "app", "lu", "inline mode: application ("+core.AppNames("or", false)+")")
	flag.StringVar(&o.Machine, "machine", "xd1", "inline mode: machine preset or machine JSON `file`")
	flag.IntVar(&o.N, "n", 30000, "inline mode: problem size")
	flag.IntVar(&o.B, "b", 3000, "inline mode: block size")
	flag.IntVar(&o.PEs, "pes", 0, "inline mode: FPGA PE count (0 = largest that fits)")
	flag.StringVar(&o.Mode, "mode", "hybrid", "inline mode: hybrid, processor-only, fpga-only")
	flag.IntVar(&o.BF, "bf", -1, "inline mode: FPGA row share (-1 = solve the model)")
	flag.IntVar(&o.L, "l", -1, "inline mode, lu and chol: panel pipeline depth (-1 = solve Eq. 5)")
	flag.IntVar(&o.L1, "l1", -1, "inline mode, fw: processor ops per phase (-1 = solve Eq. 6)")
	flag.Int64Var(&o.Seed, "seed", 0, "override both fault specs' seeds")
	flag.StringVar(&o.BaseFaults, "base-faults", "", "inline mode: fault spec JSON `file` for the base run")
	flag.StringVar(&o.CandFaults, "cand-faults", "", "inline mode: fault spec JSON `file` for the candidate run")
	flag.StringVar(&o.CandMachine, "cand-machine", "", "inline mode: candidate machine (default: same as -machine)")
	flag.IntVar(&o.CandN, "cand-n", 0, "inline mode: candidate problem size (default -n)")
	flag.IntVar(&o.CandB, "cand-b", 0, "inline mode: candidate block size (default -b)")
	flag.IntVar(&o.CandPEs, "cand-pes", -1, "inline mode: candidate PE count (default -pes)")
	flag.StringVar(&o.CandMode, "cand-mode", "", "inline mode: candidate design mode (default -mode)")
	flag.StringVar(&o.Out, "out", "", "write the comparison as stable JSON to `file` (\"-\" for stdout)")
	log.AddFlags(flag.CommandLine)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.SeedSet = true
		}
	})

	switch flag.NArg() {
	case 0:
	case 2:
		o.BaseFile, o.CandFile = flag.Arg(0), flag.Arg(1)
	default:
		log.Errorf("want exactly two span files or none (inline mode), got %d args", flag.NArg())
		os.Exit(2)
	}

	if err := run(o, os.Stdout); err != nil {
		log.Errorf("%v", err)
		os.Exit(1)
	}
}

// options bundles every CLI knob run needs; tests construct it
// directly.
type options struct {
	// BaseFile and CandFile are the positional span files; both empty
	// means inline mode.
	BaseFile, CandFile string

	App       string
	Machine   string
	N, B, PEs int
	Mode      string
	BF, L, L1 int
	Seed      int64
	SeedSet   bool

	BaseFaults, CandFaults string
	CandMachine            string
	CandN, CandB, CandPEs  int
	CandMode               string

	Out string
}

// run executes the comparison and writes the human report to w (plus
// JSON to o.Out when set).
func run(o options, w io.Writer) error {
	var base, cand analysis.Run
	var err error
	if o.BaseFile != "" {
		base, err = loadRun(o.BaseFile)
		if err != nil {
			return err
		}
		cand, err = loadRun(o.CandFile)
		if err != nil {
			return err
		}
	} else {
		base, err = runInline(o, false)
		if err != nil {
			return fmt.Errorf("base run: %w", err)
		}
		cand, err = runInline(o, true)
		if err != nil {
			return fmt.Errorf("candidate run: %w", err)
		}
	}

	c := analysis.Compare(base, cand)
	if err := c.WriteReport(w); err != nil {
		return err
	}
	if o.Out != "" {
		if o.Out == "-" {
			return c.WriteJSON(w)
		}
		f, err := os.Create(o.Out)
		if err != nil {
			return err
		}
		if err := c.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Infof("comparison JSON -> %s", o.Out)
	}
	return nil
}

// loadRun reads a persisted span file (JSONL or CSV) into a Run.
func loadRun(path string) (analysis.Run, error) {
	meta, spans, err := trace.ReadSpansFile(path)
	if err != nil {
		return analysis.Run{}, err
	}
	label := meta.Label
	if label == "" {
		label = path
	}
	return analysis.Run{Label: label, Makespan: meta.Makespan, Spans: spans}, nil
}

// candConfig resolves the candidate side's effective configuration:
// base flags with any -cand-* overrides applied.
func candConfig(o options) options {
	c := o
	if o.CandMachine != "" {
		c.Machine = o.CandMachine
	}
	if o.CandN != 0 {
		c.N = o.CandN
	}
	if o.CandB != 0 {
		c.B = o.CandB
	}
	if o.CandPEs >= 0 {
		c.PEs = o.CandPEs
	}
	if o.CandMode != "" {
		c.Mode = o.CandMode
	}
	return c
}

// runInline simulates one side of the comparison with a recorder
// attached and returns its span stream, makespan, and the analytic
// model's expected bindings.
func runInline(o options, isCand bool) (analysis.Run, error) {
	cfg := o
	faults := o.BaseFaults
	if isCand {
		cfg = candConfig(o)
		faults = o.CandFaults
	}
	mc, err := machine.Resolve(cfg.Machine)
	if err != nil {
		return analysis.Run{}, err
	}
	md, err := core.ParseMode(cfg.Mode)
	if err != nil {
		return analysis.Run{}, err
	}
	app, err := core.LookupApp(cfg.App)
	if err != nil {
		return analysis.Run{}, err
	}
	var inj *fault.Injector
	if faults != "" {
		if !app.Faults {
			return analysis.Run{}, fmt.Errorf("fault injection supports %s, not %q", core.AppNames("and", true), cfg.App)
		}
		spec, err := fault.Load(faults)
		if err != nil {
			return analysis.Run{}, err
		}
		if o.SeedSet {
			spec.Seed = o.Seed
		}
		inj, err = fault.New(spec, mc.Nodes)
		if err != nil {
			return analysis.Run{}, err
		}
	}

	rec := trace.NewRecorder()
	r, err := app.Run(core.Spec{
		Machine: mc, N: cfg.N, B: cfg.B, PEs: cfg.PEs, BF: cfg.BF, L: cfg.L, L1: cfg.L1,
		Mode: md, Observer: rec, Faults: inj,
	})
	if err != nil {
		return analysis.Run{}, err
	}
	return analysis.Run{Label: inlineLabel(cfg, faults), Makespan: r.Seconds, Spans: rec.Spans(), Expected: r.Expected()}, nil
}

// inlineLabel names an inline run deterministically from its effective
// configuration, so reports and JSON are stable across invocations.
func inlineLabel(cfg options, faults string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s n=%d b=%d mode=%s", cfg.App, cfg.Machine, cfg.N, cfg.B, cfg.Mode)
	if cfg.PEs > 0 {
		fmt.Fprintf(&b, " pes=%d", cfg.PEs)
	}
	if faults != "" {
		fmt.Fprintf(&b, " faults=%s", faults)
	}
	return b.String()
}
