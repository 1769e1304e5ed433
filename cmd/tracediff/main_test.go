package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codesign/internal/analysis"
	"codesign/internal/core"
	"codesign/internal/trace"
)

// writeFaultSpec drops a small fault spec whose window fits the ~1.7s
// virtual makespan of lu n=3000 b=600.
func writeFaultSpec(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "faults.json")
	spec := `{"window": 0.2, "events": [{"kind": "cpu-slow", "node": 2, "start": 0.3, "duration": 0.8, "factor": 0.4}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInlineDiffDeterministicAndAttributed(t *testing.T) {
	dir := t.TempDir()
	o := options{
		App: "lu", Machine: "xd1", N: 3000, B: 600, Mode: "hybrid",
		BF: -1, L: -1, L1: -1, CandPEs: -1,
		CandFaults: writeFaultSpec(t, dir),
	}

	var reports [2]bytes.Buffer
	var jsons [2][]byte
	for i := 0; i < 2; i++ {
		o.Out = filepath.Join(dir, "out.json")
		if err := run(o, &reports[i]); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(o.Out)
		if err != nil {
			t.Fatal(err)
		}
		jsons[i] = b
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		t.Fatal("comparison JSON is not byte-deterministic across invocations")
	}
	if !bytes.Equal(reports[0].Bytes(), reports[1].Bytes()) {
		t.Fatal("human report is not deterministic across invocations")
	}

	var c analysis.Comparison
	if err := json.Unmarshal(jsons[0], &c); err != nil {
		t.Fatal(err)
	}
	if c.MakespanDelta <= 0 {
		t.Fatalf("fault did not dilate the run: delta %g", c.MakespanDelta)
	}
	// 100% of the makespan delta is attributed: contributions re-sum
	// bit-exactly and the residual is float noise.
	if got := c.AttributedSum(); got != c.AttributedDelta {
		t.Fatalf("contributions sum to %.17g, stored %.17g", got, c.AttributedDelta)
	}
	if r := c.Residual; r > 1e-9*c.CandMakespan || r < -1e-9*c.CandMakespan {
		t.Fatalf("residual %g too large", r)
	}

	out := reports[0].String()
	for _, want := range []string{"differential analysis", "phase contributions", "resource contributions",
		"critical path", "bottleneck transitions", "span alignment"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	for _, key := range []string{"makespan_delta_s", "attributed_delta_s", "residual_s", "phases", "resources",
		"critical_path", "bindings"} {
		if !bytes.Contains(jsons[0], []byte(`"`+key+`"`)) {
			t.Errorf("comparison JSON missing key %q", key)
		}
	}
}

func TestFileDiffJSONLAndCSV(t *testing.T) {
	dir := t.TempDir()
	record := func(pes int) (*trace.Recorder, float64) {
		rec := trace.NewRecorder()
		r, err := core.RunLU(core.LUConfig{N: 3000, B: 600, PEs: pes, BF: -1, L: -1, Mode: core.Hybrid, Observer: rec})
		if err != nil {
			t.Fatal(err)
		}
		return rec, r.Seconds
	}
	recA, mkA := record(0)
	recB, mkB := record(4)

	basePath := filepath.Join(dir, "base.spans")
	f, err := os.Create(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := recA.WriteSpans(f, trace.Meta{App: "lu", Label: "nominal", Makespan: mkA}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Candidate side goes through the legacy CSV path to prove old
	// -spans-out dumps diff cleanly against new JSONL streams.
	candPath := filepath.Join(dir, "cand.csv")
	g, err := os.Create(candPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := recB.WriteSpansCSV(g); err != nil {
		t.Fatal(err)
	}
	g.Close()

	o := options{BaseFile: basePath, CandFile: candPath, Out: filepath.Join(dir, "d.json")}
	var report bytes.Buffer
	if err := run(o, &report); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(o.Out)
	if err != nil {
		t.Fatal(err)
	}
	var c analysis.Comparison
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if c.BaseLabel != "nominal" {
		t.Fatalf("base label = %q, want meta label", c.BaseLabel)
	}
	if c.CandLabel != candPath {
		t.Fatalf("cand label = %q, want file path", c.CandLabel)
	}
	if c.BaseMakespan != mkA {
		t.Fatalf("base makespan = %g, want %g (from meta)", c.BaseMakespan, mkA)
	}
	// CSV carries no meta, so the makespan derives from the span ends;
	// the CSV's 9-decimal timestamps allow a rounding-sized deviation.
	if d := c.CandMakespan - mkB; d > 1e-8 || d < -1e-8 {
		t.Fatalf("cand makespan = %.12g, want about %.12g", c.CandMakespan, mkB)
	}
	if got := c.AttributedSum(); got != c.AttributedDelta {
		t.Fatalf("contributions sum to %.17g, stored %.17g", got, c.AttributedDelta)
	}
}

func TestCandOverridesAndErrors(t *testing.T) {
	c := candConfig(options{App: "lu", Machine: "xd1", N: 3000, B: 600, PEs: 4, Mode: "hybrid",
		CandMachine: "xt3", CandPEs: 8, CandN: 6000, CandB: 0, CandMode: ""})
	if c.Machine != "xt3" || c.PEs != 8 || c.N != 6000 || c.B != 600 || c.Mode != "hybrid" {
		t.Fatalf("candConfig = %+v", c)
	}

	// mm takes no faults.
	o := options{App: "mm", Machine: "xd1", N: 3000, B: 600, Mode: "hybrid",
		BF: -1, L: -1, L1: -1, CandPEs: -1, CandFaults: "nope.json"}
	if err := run(o, &bytes.Buffer{}); err == nil {
		t.Fatal("mm with faults should fail")
	}
	// Unknown app.
	o = options{App: "fft", Machine: "xd1", Mode: "hybrid", CandPEs: -1}
	if err := run(o, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown inline app should fail")
	}
}

// TestInlineEveryApp diffs every registered app inline against a
// smaller PE array: the registry is the only app wiring tracediff has.
func TestInlineEveryApp(t *testing.T) {
	for _, app := range core.Apps() {
		s := app.Small()
		o := options{App: app.Name, Machine: "xd1", N: s.N, B: s.B, PEs: s.PEs, Mode: "hybrid",
			BF: s.BF, L: s.L, L1: s.L1, CandPEs: 2}
		var report bytes.Buffer
		if err := run(o, &report); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if !strings.Contains(report.String(), "differential analysis") {
			t.Fatalf("%s: report missing its header:\n%s", app.Name, report.String())
		}
	}
}
