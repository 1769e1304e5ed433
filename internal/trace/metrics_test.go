package trace

import (
	"strings"
	"testing"

	"codesign/internal/sim"
)

func TestComputeOverlapAttribution(t *testing.T) {
	spans := []sim.SpanEvent{
		// FPGA compute [0,4], CPU compute [2,6], DMA [0,8], network [5,9], sync [8,10].
		{Category: sim.CatCompute, Proc: "fpga", Resource: "fpga0", Start: 0, End: 4},
		{Category: sim.CatCompute, Proc: "cpu", Resource: "cpu0", Start: 2, End: 6},
		{Category: sim.CatDMA, Proc: "cpu", Resource: "dram-stream", Bytes: 800, Start: 0, End: 8},
		{Category: sim.CatNetwork, Proc: "net", Resource: "egress0", Bytes: 100, Start: 5, End: 9},
		{Category: sim.CatSync, Proc: "cpu", Resource: "cpu0", Start: 8, End: 10},
	}
	o := ComputeOverlap(spans, 12)
	// Priority F > P > M > C > S > idle:
	// [0,4] Tf, [4,6] Tp, [6,8] Tmem, [8,9] Tcomm, [9,10] sync, [10,12] idle.
	check := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Fatalf("%s = %v, want %v (overlap %+v)", name, got, want, o)
		}
	}
	check("Tf", o.Tf, 4)
	check("Tp", o.Tp, 2)
	check("Tmem", o.Tmem, 2)
	check("Tcomm", o.Tcomm, 1)
	check("Sync", o.Sync, 1)
	check("Idle", o.Idle, 2)
	check("BusyTf", o.BusyTf, 4)
	check("BusyTmem", o.BusyTmem, 8)
	check("components+sync+idle", o.Sum()+o.Sync+o.Idle, 12)
	// Exposed mem+comm = 3 of busy 12 => efficiency 0.75.
	check("Efficiency", o.Efficiency(), 0.75)
}

func TestSummarizeBytesAndStats(t *testing.T) {
	var sum Summarizer
	sum.Span(sim.SpanEvent{Category: sim.CatDMA, Proc: "cpu0", Resource: "dram-stream", Bytes: 1000, Start: 0, End: 1})
	sum.Span(sim.SpanEvent{Category: sim.CatNetwork, Proc: "net", Resource: "egress0", Bytes: 300, Start: 0, End: 2})
	sum.Span(sim.SpanEvent{Category: sim.CatSync, Proc: "cpu0", Resource: "dram-stream", Start: 1, End: 3})
	s := sum.Summary(4)
	if s.DRAMBytes != 1000 || s.NetworkBytes != 300 {
		t.Fatalf("bytes = dram %d net %d", s.DRAMBytes, s.NetworkBytes)
	}
	if len(s.Procs) != 2 || s.Procs[0].Name != "cpu0" {
		t.Fatalf("procs = %+v", s.Procs)
	}
	if s.Procs[0].Busy != 1 || s.Procs[0].Waiting != 2 {
		t.Fatalf("cpu0 stats = %+v", s.Procs[0])
	}
	var dram *ResourceStats
	for i := range s.Resources {
		if s.Resources[i].Name == "dram-stream" {
			dram = &s.Resources[i]
		}
	}
	if dram == nil || dram.Busy != 1 || dram.Contention != 2 {
		t.Fatalf("dram-stream stats = %+v", dram)
	}
	var b strings.Builder
	if err := s.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "overlap report") {
		t.Fatalf("report missing header:\n%s", b.String())
	}
	b.Reset()
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "kind,name,key,value\ncounter,bytes.dram,,1000\n") {
		t.Fatalf("metrics CSV does not lead with bytes.dram:\n%s", b.String())
	}
}

func TestWriteSpansCSV(t *testing.T) {
	r := NewRecorder()
	r.Span(sim.SpanEvent{Category: sim.CatCompute, Proc: "p,0", Resource: "cpu0", Phase: "panel", Start: 0, End: 0.5})
	var b strings.Builder
	if err := r.WriteSpansCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "start_s,end_s,category,device,process,resource,phase,bytes\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, `"p,0"`) {
		t.Fatalf("comma in process name not quoted:\n%s", out)
	}
}

func TestWritePerfettoShape(t *testing.T) {
	r := NewRecorder()
	r.Span(sim.SpanEvent{Category: sim.CatCompute, Proc: "cpu0", Resource: "cpu0", Start: 0, End: 1e-3})
	r.Span(sim.SpanEvent{Category: sim.CatDMA, Proc: "fpga0", Resource: "dram-stream", Bytes: 64, Start: 1e-3, End: 2e-3})
	var b strings.Builder
	if err := r.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`{"traceEvents":[`,
		`"ph":"M"`, `"thread_name"`, // track names
		`"ph":"X"`, `"dur":1000`, // 1 ms = 1000 µs
		`"bytes":64`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("perfetto output missing %q:\n%s", want, out)
		}
	}
}
