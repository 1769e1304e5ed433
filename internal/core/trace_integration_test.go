package core

import (
	"strings"
	"testing"

	"codesign/internal/trace"
)

// TestTraceOnFullRun wires the trace collector through a complete
// distributed LU simulation and checks that a coherent timeline comes
// out the other side.
func TestTraceOnFullRun(t *testing.T) {
	col := &trace.Collector{Limit: 500000}
	r, err := RunLU(LUConfig{N: 300, B: 60, PEs: 4, BF: -1, L: 2, Mode: Hybrid, Observer: col})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() == 0 {
		t.Fatal("no events collected")
	}
	spans := col.Spans()
	if len(spans) == 0 {
		t.Fatal("no busy spans derived")
	}
	// Every span must fit inside the simulated run.
	for _, s := range spans {
		if s.Start < 0 || s.End > r.Seconds+1e-9 {
			t.Fatalf("span %+v outside run [0, %g]", s, r.Seconds)
		}
	}
	// All six node processors must appear.
	procs := map[string]bool{}
	for _, s := range spans {
		procs[s.Proc] = true
	}
	for _, name := range []string{"node0.cpu", "node5.cpu"} {
		if !procs[name] {
			t.Fatalf("timeline missing %s (have %d procs)", name, len(procs))
		}
	}
	var csv strings.Builder
	if err := col.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "node0.cpu") {
		t.Fatal("CSV missing node events")
	}
	var tl strings.Builder
	if err := col.WriteTimeline(&tl, 60, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.String(), "#") {
		t.Fatal("timeline has no busy marks")
	}
}

// TestTraceOnFW does the same through the Floyd-Warshall design.
func TestTraceOnFW(t *testing.T) {
	col := &trace.Collector{Limit: 500000}
	_, err := RunFW(FWConfig{N: 96, B: 8, PEs: 4, L1: 1, Mode: Hybrid, Observer: col})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Spans()) == 0 {
		t.Fatal("no spans from FW run")
	}
}
