package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codesign/internal/core"
	"codesign/internal/fault"
	"codesign/internal/trace"
)

func TestMachineByName(t *testing.T) {
	for _, name := range []string{"xd1", "xt3", "src6", "rasc"} {
		mc, err := machineByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mc.Nodes < 1 {
			t.Fatalf("%s: empty config", name)
		}
	}
	if _, err := machineByName("cray-3"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestModeByName(t *testing.T) {
	cases := map[string]core.Mode{
		"hybrid": core.Hybrid, "processor-only": core.ProcessorOnly,
		"cpu": core.ProcessorOnly, "fpga-only": core.FPGAOnly, "fpga": core.FPGAOnly,
	}
	for name, want := range cases {
		got, err := core.ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("%s -> %v, %v", name, got, err)
		}
	}
	if _, err := core.ParseMode("turbo"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// small returns a fast end-to-end configuration for the given app: the
// registry's small run, functionally checked, with the metrics report.
func small(app string) options {
	a, err := core.LookupApp(app)
	if err != nil {
		panic(err)
	}
	s := a.Small()
	return options{App: app, Machine: "xd1", N: s.N, B: s.B, PEs: s.PEs, Mode: "hybrid",
		BF: s.BF, L: s.L, L1: s.L1, Functional: true, Seed: s.Seed, Metrics: true}
}

// smallRuns is every app's small run plus a sparse spmv one: the
// registered spmv run is dense, so the model keeps every row on the
// processor, and only a sparse operator drives its FPGA share.
func smallRuns() []options {
	var out []options
	for _, app := range core.Apps() {
		out = append(out, small(app.Name))
	}
	sparse := small("spmv")
	sparse.Density, sparse.RHS = 0.05, 4
	return append(out, sparse)
}

func TestRunAllApps(t *testing.T) {
	// End-to-end through the CLI's run path at small sizes, with the
	// analysis report on to exercise every app's expected-binding path.
	for _, o := range smallRuns() {
		o.Analyze = true
		if err := run(o); err != nil {
			t.Fatalf("%s (density %g): %v", o.App, o.Density, err)
		}
	}
	if err := run(options{App: "fft", Machine: "xd1", N: 10, B: 2, Mode: "hybrid", BF: -1, L: -1, L1: -1, Seed: 1}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestUnsetSizeIsAppDefault checks that -n and -b left at 0 resolve to
// each registered app's default size, that explicit sizes stand, and
// that fw and spmv, whose defaults differ from lu's, run with only -app.
func TestUnsetSizeIsAppDefault(t *testing.T) {
	for _, a := range core.Apps() {
		if o := (options{}).sized(a); o.N != a.N || o.B != a.B {
			t.Errorf("%s: unset size resolved to n=%d b=%d, want n=%d b=%d", a.Name, o.N, o.B, a.N, a.B)
		}
		if o := (options{N: 96, B: 8}).sized(a); o.N != 96 || o.B != 8 {
			t.Errorf("%s: explicit n=96 b=8 became n=%d b=%d", a.Name, o.N, o.B)
		}
	}
	for _, app := range []string{"fw", "spmv"} {
		fs := flag.NewFlagSet("hybridsim", flag.ContinueOnError)
		var o options
		bind(fs, &o)
		if err := fs.Parse([]string{"-app", app}); err != nil {
			t.Fatal(err)
		}
		a, _ := core.LookupApp(app)
		out, err := captureStdout(t, func() error { return run(o) })
		if err != nil {
			t.Fatalf("-app %s: %v", app, err)
		}
		if want := fmt.Sprintf("n=%d", a.N); !strings.Contains(out, want) {
			t.Errorf("-app %s did not run at %s:\n%s", app, want, out)
		}
	}
}

// TestTimelineEveryApp renders -timeline for every app's small run and
// a sparse spmv one, and requires a chart with busy marks: the
// collector rides the observer stream every app emits.
func TestTimelineEveryApp(t *testing.T) {
	for _, o := range smallRuns() {
		o.Metrics, o.Timeline = false, true
		out, err := captureStdout(t, func() error { return run(o) })
		if err != nil {
			t.Fatalf("%s (density %g): %v", o.App, o.Density, err)
		}
		_, chart, ok := strings.Cut(out, "activity timeline (# = busy):")
		if !ok || strings.Contains(chart, "(no activity)") || !strings.Contains(chart, "#") {
			t.Errorf("%s (density %g): empty timeline:\n%s", o.App, o.Density, out)
		}
	}
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	stdout := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = stdout
	out, rerr := os.ReadFile(tmp.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

func TestRunExportFiles(t *testing.T) {
	dir := t.TempDir()
	o := small("lu")
	o.Metrics = false
	o.MetricsOut = filepath.Join(dir, "metrics.csv")
	o.SpansOut = filepath.Join(dir, "spans.csv")
	o.TraceOut = filepath.Join(dir, "trace.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.MetricsOut, o.SpansOut, o.TraceOut} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
	// The metrics CSV must parse as RFC 4180 with its kind,name,key,value header.
	f, err := os.Open(o.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("metrics CSV malformed: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("metrics CSV has %d rows, want header plus data", len(rows))
	}
	want := []string{"kind", "name", "key", "value"}
	for i, h := range want {
		if rows[0][i] != h {
			t.Fatalf("metrics CSV header %v, want %v", rows[0], want)
		}
	}
	found := false
	for _, r := range rows[1:] {
		if r[1] == "overlap.efficiency" {
			found = true
		}
	}
	if !found {
		t.Fatal("metrics CSV missing overlap.efficiency")
	}
}

func TestRunSpansJSONAndDiffAgainst(t *testing.T) {
	dir := t.TempDir()
	o := small("lu")
	o.Metrics, o.Functional = false, false
	o.SpansJSON = filepath.Join(dir, "base.spans")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	meta, spans, err := trace.ReadSpansFile(o.SpansJSON)
	if err != nil {
		t.Fatalf("persisted spans unreadable: %v", err)
	}
	if meta.App != "lu" || meta.Makespan <= 0 || len(spans) == 0 {
		t.Fatalf("bad persisted meta %+v with %d spans", meta, len(spans))
	}

	// A second run with a different design diffs against the archive.
	o2 := small("lu")
	o2.Metrics, o2.Functional = false, false
	o2.PEs = 2
	o2.DiffAgainst = o.SpansJSON
	if err := run(o2); err != nil {
		t.Fatalf("diff-against: %v", err)
	}

	// A bad base file is a clean error, not a panic.
	o2.DiffAgainst = filepath.Join(dir, "missing.spans")
	if err := run(o2); err == nil {
		t.Fatal("missing -diff-against file accepted")
	}
}

func TestRunWithFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faults.json")
	spec := `{"seed": 3, "window": 0.001, "events": [
		{"kind": "throttle-bd", "node": 1, "start": 0, "factor": 0.5}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	o := small("lu")
	o.Functional = false // degraded mode reshapes the schedule under real data
	o.Metrics = false
	o.Faults = path
	if err := run(o); err != nil {
		t.Fatalf("faulted lu run: %v", err)
	}

	// Non-LU/FW apps cannot degrade; the flag must be rejected up front.
	bad := small("mm")
	bad.Faults = path
	if err := run(bad); err == nil {
		t.Fatal("mm accepted -faults")
	}
}

// TestRepartitionTimePrinted checks that a repartition line prints its
// time at the resilience report's %.6g: a small lu run that loses nodes
// 3 and 4 at 20 and 30 µs repartitions about 0.23 ms in, which a
// fixed two-decimal format would print as t=0.00s.
func TestRepartitionTimePrinted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	spec := `{"events": [
		{"kind": "node-kill", "node": 3, "start": 20e-6},
		{"kind": "node-kill", "node": 4, "start": 30e-6}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	o := small("lu")
	o.Functional, o.Metrics, o.Faults = false, false, path
	out, err := captureStdout(t, func() error { return run(o) })
	if err != nil {
		t.Fatalf("faulted lu run: %v", err)
	}

	app, err := core.LookupApp("lu")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fault.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s := app.Small()
	s.Faults, err = fault.New(fs, s.Machine.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := app.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Repartitions) == 0 {
		t.Fatal("two node kills caused no repartition")
	}
	for _, rp := range r.Repartitions {
		want := fmt.Sprintf("repartition:       t=%.6gs iter %d (%s, %d live)", rp.Time, rp.Iteration, rp.Reason, rp.Live)
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

// TestMetricsOutReferenceDigests pins the exact bytes -metrics-out
// writes for every registered app's small hybrid run. The digests were
// recorded on the metrics exporter this one replaced; a change to row
// order, value formatting or the set of names changes a digest.
func TestMetricsOutReferenceDigests(t *testing.T) {
	want := map[string]string{
		"lu":   "23a73b2ce6053572",
		"fw":   "c747320fdd30946a",
		"mm":   "9840eefc5863ac1e",
		"spmv": "4006bf3a4260fc5a",
		"chol": "33fdd0943a0a164d",
		"qr":   "5e3fb22ffb930d79",
		"cg":   "9a8a3236d705b089",
	}
	dir := t.TempDir()
	for _, app := range core.Apps() {
		o := small(app.Name)
		o.Metrics = false
		o.MetricsOut = filepath.Join(dir, app.Name+".csv")
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		b, err := os.ReadFile(o.MetricsOut)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:])[:16]; got != want[app.Name] {
			t.Errorf("%s: metrics CSV digest %s, want %s", app.Name, got, want[app.Name])
		}
	}
	if len(want) != len(core.Apps()) {
		t.Errorf("%d digests pinned, want one per app (%d)", len(want), len(core.Apps()))
	}
}
