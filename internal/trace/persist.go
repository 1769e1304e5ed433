package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

	"codesign/internal/sim"
)

// SpanSchemaVersion is the version number written into the header of
// persisted span streams. Readers refuse newer versions; the version
// bumps only when a field changes meaning (adding an optional field is
// backward compatible and does not bump it).
const SpanSchemaVersion = 1

// maxSpanPrealloc bounds the span slice ReadSpans allocates from a
// header's declared count; longer streams grow it by appending.
const maxSpanPrealloc = 1 << 12

// SpanRecord is the persisted form of one sim.SpanEvent. Its JSON tags
// are the single source of truth for span field naming: the JSONL
// format marshals records directly, the CSV exporter derives its header
// from SpanFieldNames, and the Perfetto exporter's args are tested
// against the same list — so the three formats cannot drift apart.
//
// Category and Device are stored as their String() names so the files
// are self-describing; Device is empty (omitted) for DeviceUnknown.
type SpanRecord struct {
	// Start and End bound the interval in virtual seconds.
	Start float64 `json:"start_s"`
	// End is the interval's end in virtual seconds.
	End float64 `json:"end_s"`
	// Category names the activity class ("compute", "dma", ...).
	Category string `json:"category"`
	// Device names the hardware kind ("cpu", "fpga", "dram", "link");
	// empty when the emitter declared none.
	Device string `json:"device,omitempty"`
	// Proc names the emitting process.
	Proc string `json:"process"`
	// Resource names the resource the span occupied ("" if none).
	Resource string `json:"resource,omitempty"`
	// Phase is the process's phase annotation at emission time.
	Phase string `json:"phase,omitempty"`
	// Bytes is the payload a data-movement span carried (0 otherwise).
	Bytes int64 `json:"bytes,omitempty"`
}

// SpanFieldNames returns the canonical ordered field names of the span
// schema — the JSON keys of SpanRecord. The CSV header is exactly this
// list; the JSONL format uses these keys; the Perfetto exporter's args
// keys are a subset. Tests pin all three to this one definition.
func SpanFieldNames() []string {
	t := reflect.TypeOf(SpanRecord{})
	names := make([]string, t.NumField())
	for i := range names {
		tag := t.Field(i).Tag.Get("json")
		names[i] = strings.SplitN(tag, ",", 2)[0]
	}
	return names
}

// RecordOf converts a live span to its persisted form.
func RecordOf(s sim.SpanEvent) SpanRecord {
	r := SpanRecord{
		Start:    s.Start,
		End:      s.End,
		Category: s.Category.String(),
		Proc:     s.Proc,
		Resource: s.Resource,
		Phase:    s.Phase,
		Bytes:    s.Bytes,
	}
	if s.Device != sim.DeviceUnknown {
		r.Device = s.Device.String()
	}
	return r
}

// ErrInvalidSpan marks a persisted span whose values no run can
// produce: a non-finite start or end, an end before its start, or a
// negative byte count.
var ErrInvalidSpan = errors.New("invalid span")

// SpanError is a reader's rejection of one persisted span: the line it
// sits on and why. Err wraps ErrInvalidSpan when the record decoded but
// its values are impossible.
type SpanError struct {
	// Line is the span's 1-based line number in its stream.
	Line int
	// Err is the reason the span was rejected.
	Err error
}

// Error formats the rejection as "span line N: reason".
func (e *SpanError) Error() string { return fmt.Sprintf("span line %d: %v", e.Line, e.Err) }

// Unwrap returns the rejection reason.
func (e *SpanError) Unwrap() error { return e.Err }

// Event converts a persisted record back to a live span. It fails on an
// unrecognized category or device name, and with ErrInvalidSpan on
// values no run can produce.
func (r SpanRecord) Event() (sim.SpanEvent, error) {
	switch {
	case math.IsNaN(r.Start) || math.IsInf(r.Start, 0):
		return sim.SpanEvent{}, fmt.Errorf("%w: start_s %v is not finite", ErrInvalidSpan, r.Start)
	case math.IsNaN(r.End) || math.IsInf(r.End, 0):
		return sim.SpanEvent{}, fmt.Errorf("%w: end_s %v is not finite", ErrInvalidSpan, r.End)
	case r.End < r.Start:
		return sim.SpanEvent{}, fmt.Errorf("%w: end_s %v precedes start_s %v", ErrInvalidSpan, r.End, r.Start)
	case r.Bytes < 0:
		return sim.SpanEvent{}, fmt.Errorf("%w: negative bytes %d", ErrInvalidSpan, r.Bytes)
	}
	cat, err := sim.ParseCategory(r.Category)
	if err != nil {
		return sim.SpanEvent{}, err
	}
	dev, err := sim.ParseDevice(r.Device)
	if err != nil {
		return sim.SpanEvent{}, err
	}
	return sim.SpanEvent{
		Category: cat,
		Device:   dev,
		Proc:     r.Proc,
		Resource: r.Resource,
		Phase:    r.Phase,
		Bytes:    r.Bytes,
		Start:    r.Start,
		End:      r.End,
	}, nil
}

// Meta is the header line of a persisted span stream: schema version,
// run identity (app, machine, free-form label), the run's makespan, and
// the span count (so truncated files are detected on read).
type Meta struct {
	// Schema is the span schema version (SpanSchemaVersion on write).
	Schema int `json:"schema"`
	// App names the application, a registered core app name, if known.
	App string `json:"app,omitempty"`
	// Machine names the machine configuration, if known.
	Machine string `json:"machine,omitempty"`
	// Label is a free-form run label ("nominal", "faulted", a path...).
	Label string `json:"label,omitempty"`
	// Makespan is the run's total virtual seconds.
	Makespan float64 `json:"makespan_s"`
	// Spans is the number of span lines that follow the header.
	Spans int `json:"spans"`
}

// WriteSpans persists a span stream as JSONL: one Meta header line
// followed by one SpanRecord line per span, in the given order. The
// caller's meta.Schema and meta.Spans are overwritten with the current
// schema version and the actual count. Field order is fixed by the
// record structs, so identical runs persist identical bytes.
func WriteSpans(w io.Writer, meta Meta, spans []sim.SpanEvent) error {
	meta.Schema = SpanSchemaVersion
	meta.Spans = len(spans)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, sp := range spans {
		if err := enc.Encode(RecordOf(sp)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSpans persists the recorded spans (see the package-level
// WriteSpans) without copying them out of the recorder.
func (r *Recorder) WriteSpans(w io.Writer, meta Meta) error {
	return WriteSpans(w, meta, r.spans)
}

// ReadSpans reads a JSONL span stream written by WriteSpans. It rejects
// unknown fields, schema versions newer than this build, and files
// whose span count disagrees with the header (truncation). A header
// with no makespan gets one filled in from the latest span end.
func ReadSpans(r io.Reader) (Meta, []sim.SpanEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var meta Meta
	var spans []sim.SpanEvent
	line := 0
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		line++
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if line == 1 {
			if err := dec.Decode(&meta); err != nil {
				return Meta{}, nil, fmt.Errorf("span stream header: %w", err)
			}
			if meta.Schema < 1 || meta.Schema > SpanSchemaVersion {
				return Meta{}, nil, fmt.Errorf("span schema version %d unsupported (this build reads 1..%d)",
					meta.Schema, SpanSchemaVersion)
			}
			if meta.Spans < 0 {
				return Meta{}, nil, fmt.Errorf("span stream header: negative span count %d", meta.Spans)
			}
			// The count is checked against the lines actually read, not
			// trusted for allocation.
			spans = make([]sim.SpanEvent, 0, min(meta.Spans, maxSpanPrealloc))
			continue
		}
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			return Meta{}, nil, &SpanError{Line: line, Err: err}
		}
		sp, err := rec.Event()
		if err != nil {
			return Meta{}, nil, &SpanError{Line: line, Err: err}
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return Meta{}, nil, err
	}
	if line == 0 {
		return Meta{}, nil, fmt.Errorf("span stream is empty")
	}
	if len(spans) != meta.Spans {
		return Meta{}, nil, fmt.Errorf("span stream truncated: header declares %d spans, found %d",
			meta.Spans, len(spans))
	}
	if meta.Makespan == 0 {
		meta.Makespan = latestEnd(spans)
	}
	return meta, spans, nil
}

// ReadSpansCSV reads a span CSV written by Recorder.WriteSpansCSV —
// either the current header (with a device column) or the pre-device
// seven-column header, so old -spans-out dumps round-trip. Columns are
// matched by name, so column order does not matter.
func ReadSpansCSV(r io.Reader) ([]sim.SpanEvent, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("span CSV header: %w", err)
	}
	col := map[string]int{}
	for i, name := range header {
		col[strings.TrimSpace(name)] = i
	}
	for _, required := range []string{"start_s", "end_s", "category", "process"} {
		if _, ok := col[required]; !ok {
			return nil, fmt.Errorf("span CSV header missing column %q", required)
		}
	}
	// Text fields are made valid UTF-8 the way the JSON decoder does,
	// so a CSV stream persists to the same JSONL as its conversion.
	field := func(row []string, name string) string {
		i, ok := col[name]
		if !ok || i >= len(row) {
			return ""
		}
		if !utf8.ValidString(row[i]) {
			return strings.ToValidUTF8(row[i], "\uFFFD")
		}
		return row[i]
	}
	var spans []sim.SpanEvent
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, &SpanError{Line: line, Err: err}
		}
		rec := SpanRecord{
			Category: field(row, "category"),
			Device:   field(row, "device"),
			Proc:     field(row, "process"),
			Resource: field(row, "resource"),
			Phase:    field(row, "phase"),
		}
		if rec.Start, err = strconv.ParseFloat(field(row, "start_s"), 64); err != nil {
			return nil, &SpanError{Line: line, Err: fmt.Errorf("start_s: %w", err)}
		}
		if rec.End, err = strconv.ParseFloat(field(row, "end_s"), 64); err != nil {
			return nil, &SpanError{Line: line, Err: fmt.Errorf("end_s: %w", err)}
		}
		if b := field(row, "bytes"); b != "" {
			if rec.Bytes, err = strconv.ParseInt(b, 10, 64); err != nil {
				return nil, &SpanError{Line: line, Err: fmt.Errorf("bytes: %w", err)}
			}
		}
		sp, err := rec.Event()
		if err != nil {
			return nil, &SpanError{Line: line, Err: err}
		}
		spans = append(spans, sp)
	}
	return spans, nil
}

// ReadSpansFile reads a persisted span stream from disk, sniffing the
// format: files whose first byte is '{' are JSONL (WriteSpans), anything
// else is CSV (Recorder.WriteSpansCSV, old or new header). CSV files
// carry no header metadata, so the returned Meta holds only the schema
// version and a makespan derived from the latest span end.
func ReadSpansFile(path string) (Meta, []sim.SpanEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	first, err := br.Peek(1)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	if first[0] == '{' {
		meta, spans, err := ReadSpans(br)
		if err != nil {
			return Meta{}, nil, fmt.Errorf("%s: %w", path, err)
		}
		return meta, spans, nil
	}
	spans, err := ReadSpansCSV(br)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	meta := Meta{Schema: SpanSchemaVersion, Spans: len(spans), Makespan: latestEnd(spans)}
	return meta, spans, nil
}

// latestEnd returns the maximum span end time (0 for no spans).
func latestEnd(spans []sim.SpanEvent) float64 {
	var max float64
	for _, sp := range spans {
		if sp.End > max {
			max = sp.End
		}
	}
	return max
}
