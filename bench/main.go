// Command bench is the repository's end-to-end benchmark. It runs one
// workload per invocation — two closed-loop sweep workloads and two
// serving workloads against an in-process codesignd server — checks
// every output, and prints each metric by name with its unit: a table,
// then one JSON line. With -trace 1 it instead replays a seeded sample
// of every workload through the layers' public functions, recording a
// span around each call, and reports the per-layer ledger.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload sweep-sim -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -seed 1                   # every workload, one child process each
//	bash bench/run.sh compare BASE.json HEAD.json
//
// See bench/README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line the benchmark prints: exactly these keys.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one output check and its outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is one run's full record, written to DIR/results.json.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Seconds    float64           `json:"seconds"`
	PlanDigest string            `json:"plan_digest"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	// Extra holds workload-specific detail beyond the metrics that
	// BENCHMARK.json lists (per-class latencies, pass counts).
	Extra   map[string]metric `json:"extra,omitempty"`
	Digests map[string]string `json:"digests,omitempty"`
	Checks  []check           `json:"checks"`
}

func newReport(workload string, seed int64, trace bool, seconds float64) *report {
	return &report{Workload: workload, Seed: seed, Trace: trace, Seconds: seconds,
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Digests: map[string]string{}}
}

// set records a listed metric and extra a detail metric. A value
// that is not finite (a percentile of no samples) is left out, so the
// run's metric set shows what could not be measured.
func (r *report) set(name string, v float64, unit string) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.Metrics[name] = metric{v, unit}
	}
}

func (r *report) extra(name string, v float64, unit string) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.Extra[name] = metric{v, unit}
	}
}

// op counts one attempted operation, failed or not.
func (r *report) op(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// check records an output check; a failed check counts as a failed
// operation.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	r.op(ok)
}

func (r *report) line() line {
	return line{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// workloads maps each workload name to its untraced runner.
var workloads = map[string]func(*runCtx, *report) error{
	"sweep-sim":   runSweepSim,
	"sweep-model": runSweepModel,
	"serve-hot":   runServeHot,
	"serve-mixed": runServeMixed,
}

// workloadOrder is the order the all-workloads mode runs them in.
var workloadOrder = []string{"sweep-sim", "sweep-model", "serve-hot", "serve-mixed"}

// runCtx is what a workload runner gets: the window length and the
// seed's generated inputs.
type runCtx struct {
	seconds float64
	plan    *plan
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+" (empty = all, each in a child process)")
		seed     = flag.Int64("seed", 1, "workload seed (2 is the held-out seed)")
		seconds  = flag.Float64("seconds", 20, "measured window per workload, in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run: replay every workload through the layers and report the per-layer ledger")
		out      = flag.String("out", "", "directory for results.json and spans.jsonl (default .bench_build/out/<workload>-seed<N>-trace<T>)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *workload == "" {
		err = runAll(*seed, *seconds, *trace, *out)
	} else {
		err = runOne(*workload, *seed, *seconds, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload (or its traced ledger) and prints the table
// and the final JSON line.
func runOne(workload string, seed int64, seconds float64, trace bool, out string) error {
	run, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadOrder, ", "))
	}
	if out == "" {
		out = filepath.Join(".bench_build", "out", fmt.Sprintf("%s-seed%d-trace%d", workload, seed, btoi(trace)))
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	c := &runCtx{seconds: seconds, plan: newPlan(seed, seconds)}
	rep := newReport(workload, seed, trace, seconds)
	rep.PlanDigest = c.plan.digest()
	var err error
	if trace {
		err = runTraced(c, rep, filepath.Join(out, "spans.jsonl"))
	} else {
		err = run(c, rep)
		rep.set("max_rss_mb", maxRSSMB(), "MB")
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if err := writeJSONFile(filepath.Join(out, "results.json"), rep); err != nil {
		return err
	}
	printTable(os.Stdout, rep)
	return json.NewEncoder(os.Stdout).Encode(rep.line())
}

// runAll runs every workload in its own child process, so memory is
// measured per workload, then the traced ledger when asked. It prints
// the combined table and a final line whose metrics are named
// <workload>.<metric>.
func runAll(seed int64, seconds float64, trace int, out string) error {
	if out == "" {
		out = filepath.Join(".bench_build", "out", fmt.Sprintf("all-seed%d", seed))
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := line{Correct: true, Metrics: map[string]metric{}}
	var reps []json.RawMessage
	runs := append([]string(nil), workloadOrder...)
	if trace == 1 {
		runs = append(runs, "trace")
	}
	for _, w := range runs {
		args := []string{"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
		dir := filepath.Join(out, w)
		if w == "trace" {
			// The ledger is the same whichever workload names the run.
			args[1], args[7] = workloadOrder[0], "1"
		}
		args = append(args, "-out", dir)
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var l line
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
			return fmt.Errorf("%s: reading result: %w", w, err)
		}
		fmt.Fprintln(os.Stdout, strings.Join(lines[:len(lines)-1], "\n"))
		all.Correct = all.Correct && l.Correct
		all.Attempted += l.Attempted
		all.Failed += l.Failed
		for k, m := range l.Metrics {
			all.Metrics[w+"."+k] = m
		}
		b, err := os.ReadFile(filepath.Join(dir, "results.json"))
		if err != nil {
			return err
		}
		reps = append(reps, b)
	}
	if err := writeJSONFile(filepath.Join(out, "results.json"), reps); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(all)
}

// printTable prints every metric by name with its unit.
func printTable(w io.Writer, rep *report) {
	kind := "end-to-end"
	if rep.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s seed=%d %s (plan %s)\n", rep.Workload, rep.Seed, kind, rep.PlanDigest[:12])
	for _, part := range []map[string]metric{rep.Metrics, rep.Extra} {
		for _, k := range sortedKeys(part) {
			fmt.Fprintf(w, "  %-28s %16.6g %s\n", k, part[k].Value, part[k].Unit)
		}
	}
	for _, c := range rep.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED CHECK %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// maxRSSMB is this process's peak resident set size (NaN, so left out,
// if the kernel will not say).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
