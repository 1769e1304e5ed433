package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"codesign/internal/sim"
)

func sampleSpans() []sim.SpanEvent {
	return []sim.SpanEvent{
		{Category: sim.CatCompute, Device: sim.DeviceFPGA, Proc: "fpga0", Resource: "fpga0-pe", Phase: "panel", Start: 0, End: 1.5},
		{Category: sim.CatDMA, Device: sim.DeviceDRAM, Proc: "fpga0", Resource: "dram0", Phase: "panel", Bytes: 4096, Start: 0.25, End: 0.75},
		{Category: sim.CatNetwork, Device: sim.DeviceLink, Proc: "cpu1", Resource: "link1", Phase: "broadcast", Bytes: 1 << 20, Start: 1.5, End: 2.25},
		{Category: sim.CatSync, Proc: "cpu2", Resource: "dram1", Start: 2, End: 2.5},
		{Category: sim.CatCompute, Device: sim.DeviceCPU, Proc: "cpu,2", Phase: "up,date", Start: 2.5, End: 3},
	}
}

// The span schema has one definition: SpanRecord's JSON tags. The CSV
// header must be exactly that list, and every Perfetto arg key except
// the "name" thread metadata must appear in it.
func TestSpanSchemaUnified(t *testing.T) {
	names := SpanFieldNames()
	want := []string{"start_s", "end_s", "category", "device", "process", "resource", "phase", "bytes"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("SpanFieldNames = %v, want %v", names, want)
	}

	r := NewRecorder()
	for _, sp := range sampleSpans() {
		r.Span(sp)
	}
	var csvOut strings.Builder
	if err := r.WriteSpansCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(csvOut.String(), "\n", 2)[0]
	if header != strings.Join(names, ",") {
		t.Fatalf("CSV header %q does not match schema %v", header, names)
	}

	schema := map[string]bool{}
	for _, n := range names {
		schema[n] = true
	}
	at := reflect.TypeOf(perfettoArgs{})
	for i := 0; i < at.NumField(); i++ {
		key := strings.SplitN(at.Field(i).Tag.Get("json"), ",", 2)[0]
		if key == "name" {
			continue // thread-track metadata, not a span field
		}
		if !schema[key] {
			t.Errorf("perfetto arg key %q is not a span schema field", key)
		}
	}
}

func TestWriteReadSpansRoundTrip(t *testing.T) {
	spans := sampleSpans()
	meta := Meta{App: "lu", Machine: "xd1", Label: "nominal", Makespan: 3}

	var a, b bytes.Buffer
	if err := WriteSpans(&a, meta, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpans(&b, meta, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteSpans is not byte-deterministic")
	}

	gotMeta, gotSpans, err := ReadSpans(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantMeta := meta
	wantMeta.Schema = SpanSchemaVersion
	wantMeta.Spans = len(spans)
	if gotMeta != wantMeta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, wantMeta)
	}
	if !reflect.DeepEqual(gotSpans, spans) {
		t.Fatalf("spans round-trip mismatch:\ngot  %+v\nwant %+v", gotSpans, spans)
	}
}

func TestReadSpansFillsMakespan(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, Meta{}, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	meta, _, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Makespan != 3 {
		t.Fatalf("makespan = %v, want 3 (latest span end)", meta.Makespan)
	}
}

func TestReadSpansErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"future schema":    `{"schema":99,"makespan_s":1,"spans":0}` + "\n",
		"unknown field":    `{"schema":1,"makespan_s":1,"spans":0,"bogus":true}` + "\n",
		"truncated stream": `{"schema":1,"makespan_s":1,"spans":2}` + "\n" + `{"start_s":0,"end_s":1,"category":"compute","process":"p"}` + "\n",
		"bad category":     `{"schema":1,"makespan_s":1,"spans":1}` + "\n" + `{"start_s":0,"end_s":1,"category":"warp","process":"p"}` + "\n",
		"bad device":       `{"schema":1,"makespan_s":1,"spans":1}` + "\n" + `{"start_s":0,"end_s":1,"category":"compute","device":"tpu","process":"p"}` + "\n",
	}
	for name, in := range cases {
		if _, _, err := ReadSpans(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadSpans accepted malformed input", name)
		}
	}
}

func TestReadSpansCSVRoundTrip(t *testing.T) {
	spans := sampleSpans()
	r := NewRecorder()
	for _, sp := range spans {
		r.Span(sp)
	}
	var buf strings.Builder
	if err := r.WriteSpansCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpansCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("CSV round-trip mismatch:\ngot  %+v\nwant %+v", got, spans)
	}
}

// Old -spans-out dumps predate the device column; they must still read
// back, with DeviceUnknown filled in (trace.Classify then falls back to
// its resource-name heuristic).
func TestReadSpansCSVLegacyHeader(t *testing.T) {
	legacy := "start_s,end_s,category,process,resource,phase,bytes\n" +
		"0.000000000,1.500000000,compute,fpga0,fpga0-pe,panel,0\n" +
		"0.250000000,0.750000000,dma,fpga0,dram0,panel,4096\n"
	spans, err := ReadSpansCSV(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	for _, sp := range spans {
		if sp.Device != sim.DeviceUnknown {
			t.Fatalf("legacy CSV span has device %v, want DeviceUnknown", sp.Device)
		}
	}
	if spans[1].Bytes != 4096 || spans[1].Category != sim.CatDMA || spans[1].Phase != "panel" {
		t.Fatalf("legacy span fields wrong: %+v", spans[1])
	}
}

func TestReadSpansFileSniffsFormat(t *testing.T) {
	spans := sampleSpans()
	dir := t.TempDir()

	jsonl := dir + "/run.spans"
	f, err := os.Create(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSpans(f, Meta{App: "lu", Makespan: 3}, spans); err != nil {
		t.Fatal(err)
	}
	f.Close()

	csvPath := dir + "/run.csv"
	g, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder()
	for _, sp := range spans {
		r.Span(sp)
	}
	if err := r.WriteSpansCSV(g); err != nil {
		t.Fatal(err)
	}
	g.Close()

	for _, path := range []string{jsonl, csvPath} {
		meta, got, err := ReadSpansFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !reflect.DeepEqual(got, spans) {
			t.Fatalf("%s: spans mismatch", path)
		}
		if meta.Makespan != 3 {
			t.Fatalf("%s: makespan = %v, want 3", path, meta.Makespan)
		}
	}
}

func TestParseCategoryDeviceRoundTrip(t *testing.T) {
	for _, c := range []sim.Category{sim.CatCompute, sim.CatDMA, sim.CatNetwork, sim.CatSync, sim.CatIdle} {
		got, err := sim.ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCategory(%q) = %v, %v", c.String(), got, err)
		}
	}
	for _, d := range []sim.Device{sim.DeviceUnknown, sim.DeviceCPU, sim.DeviceFPGA, sim.DeviceDRAM, sim.DeviceLink} {
		got, err := sim.ParseDevice(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDevice(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := sim.ParseCategory("nope"); err == nil {
		t.Error("ParseCategory accepted garbage")
	}
	if _, err := sim.ParseDevice("nope"); err == nil {
		t.Error("ParseDevice accepted garbage")
	}
}

// A span header's count is outside input: a negative count is a header
// error, and a huge one must not be trusted for allocation — the
// truncation check still reports the lie.
func TestReadSpansHostileHeaderCount(t *testing.T) {
	_, _, err := ReadSpans(strings.NewReader(`{"schema":1,"spans":-1}` + "\n"))
	if err == nil || !strings.HasPrefix(err.Error(), "span stream header") {
		t.Errorf("negative count: err = %v, want a span stream header error", err)
	}
	_, _, err = ReadSpans(strings.NewReader(`{"schema":1,"spans":300000000}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("oversized count: err = %v, want a truncation error", err)
	}
}

// Spans no run can produce are rejected by both readers with a
// SpanError naming the offending line and wrapping ErrInvalidSpan.
func TestReadSpansRejectsInvalidValues(t *testing.T) {
	cases := []struct {
		name              string
		start, end, bytes string
		finite            bool
	}{
		{"infinite end", "0", "+Inf", "0", false},
		{"infinite start", "-Inf", "1", "0", false},
		{"NaN end", "0", "NaN", "0", false},
		{"NaN start", "NaN", "1", "0", false},
		{"end before start", "2", "1", "0", true},
		{"negative bytes", "0", "1", "-8", true},
	}
	for _, c := range cases {
		csvIn := "start_s,end_s,category,device,process,resource,phase,bytes\n" +
			"0,1,compute,,p,,,0\n" +
			c.start + "," + c.end + ",compute,,p,,," + c.bytes + "\n"
		_, err := ReadSpansCSV(strings.NewReader(csvIn))
		checkInvalidSpan(t, "CSV "+c.name, err, 3)

		// JSON has no literal for non-finite numbers; the JSONL reader
		// rejects them at decode time, still on the right line.
		jsonIn := `{"schema":1,"spans":2}` + "\n" +
			`{"start_s":0,"end_s":1,"category":"compute","process":"p"}` + "\n" +
			`{"start_s":` + c.start + `,"end_s":` + c.end + `,"category":"compute","process":"p","bytes":` + c.bytes + "}\n"
		_, _, err = ReadSpans(strings.NewReader(jsonIn))
		var se *SpanError
		if !errors.As(err, &se) || se.Line != 3 {
			t.Errorf("JSONL %s: err = %v, want a SpanError on line 3", c.name, err)
			continue
		}
		if c.finite {
			checkInvalidSpan(t, "JSONL "+c.name, err, 3)
		}
	}
}

func checkInvalidSpan(t *testing.T, name string, err error, line int) {
	t.Helper()
	var se *SpanError
	if !errors.As(err, &se) || se.Line != line || !errors.Is(err, ErrInvalidSpan) {
		t.Errorf("%s: err = %v, want an invalid-span SpanError on line %d", name, err, line)
	}
}

// FuzzReadSpansFile feeds arbitrary files through ReadSpansFile, so the
// '{' format sniff and both CSV headers are exercised. It must reject
// with an error naming the file or accept, never panic, and an accepted
// stream must persist to a fixed point: WriteSpans, ReadSpans and
// WriteSpans again give the same bytes.
func FuzzReadSpansFile(f *testing.F) {
	var jsonl bytes.Buffer
	if err := WriteSpans(&jsonl, Meta{App: "lu", Machine: "xd1", Makespan: 3}, sampleSpans()); err != nil {
		f.Fatal(err)
	}
	r := NewRecorder()
	for _, sp := range sampleSpans() {
		r.Span(sp)
	}
	var csvOut bytes.Buffer
	if err := r.WriteSpansCSV(&csvOut); err != nil {
		f.Fatal(err)
	}
	f.Add(jsonl.Bytes())
	f.Add(csvOut.Bytes())
	for _, seed := range []string{
		"start_s,end_s,category,process,resource,phase,bytes\n" +
			"0.000000000,1.500000000,compute,fpga0,fpga0-pe,panel,0\n",
		`{"schema":1,"spans":-1}`,
		`{"schema":1,"spans":300000000}`,
	} {
		f.Add([]byte(seed))
	}
	path := filepath.Join(f.TempDir(), "in.spans")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		meta, spans, err := ReadSpansFile(path)
		if err != nil {
			if !strings.HasPrefix(err.Error(), path) {
				t.Fatalf("rejection %q does not name the file", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := WriteSpans(&first, meta, spans); err != nil {
			t.Fatalf("WriteSpans of an accepted stream: %v", err)
		}
		meta2, spans2, err := ReadSpans(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadSpans of a written stream: %v\n%s", err, first.Bytes())
		}
		if err := WriteSpans(&second, meta2, spans2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("persisted stream is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
