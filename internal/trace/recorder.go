package trace

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"codesign/internal/sim"
)

// Recorder implements sim.Observer: it buffers every typed span, in
// emission order, for consumers that read whole spans after the run:
// the Perfetto and CSV exporters, the span archive (WriteSpans), the
// critical path and tracediff. It ignores raw events (a Collector
// keeps those). Register it with Engine.Observe (or pass it through an
// application config's Observer field). The recorder keeps everything
// in memory, 88 bytes per span: one sweep-sim design point emits up to
// 90,369 spans (88,307 of positive length), about 8 MB. Callers that
// need only aggregates fold spans as they are emitted instead: a
// Summarizer builds the run Summary, and a Digest the overlap and the
// phase totals in 32 pointer-free bytes per span.
type Recorder struct {
	spans []sim.SpanEvent
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Event ignores raw engine events (sim.Observer).
func (r *Recorder) Event(float64, string, string) {}

// Span stores one completed typed span (sim.Observer).
func (r *Recorder) Span(s sim.SpanEvent) { r.spans = append(r.spans, s) }

// Spans returns the recorded spans in emission (end-time) order.
func (r *Recorder) Spans() []sim.SpanEvent {
	out := make([]sim.SpanEvent, len(r.spans))
	copy(out, r.spans)
	return out
}

// SpansView returns the recorded spans without copying. The slice
// aliases the recorder's buffer: it is valid until the next Span or
// Reset call, and callers must not modify or retain it. Callers that
// only read the spans once, right after the run, use it to avoid a
// copy; everyone else should prefer Spans.
func (r *Recorder) SpansView() []sim.SpanEvent { return r.spans }

// Reset discards everything recorded so far.
func (r *Recorder) Reset() { r.spans = r.spans[:0] }

// perfetto trace_event structures. Fields are structs (never maps) so
// JSON field order — and therefore the exported bytes — is fixed.
// The arg keys (except "name", which is thread metadata) are drawn
// from the span schema (SpanRecord); a test pins them to
// SpanFieldNames so the formats cannot drift.
type perfettoArgs struct {
	Name     string `json:"name,omitempty"`
	Device   string `json:"device,omitempty"`
	Resource string `json:"resource,omitempty"`
	Phase    string `json:"phase,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
}

type perfettoEvent struct {
	Name string        `json:"name"`
	Cat  string        `json:"cat,omitempty"`
	Ph   string        `json:"ph"`
	Ts   float64       `json:"ts"`
	Dur  float64       `json:"dur,omitempty"`
	Pid  int           `json:"pid"`
	Tid  int           `json:"tid"`
	Args *perfettoArgs `json:"args,omitempty"`
}

// WritePerfetto exports the spans as Chrome trace_event JSON loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Each process gets
// a thread track (tid assigned in first-span order) named via "M"
// metadata events; spans become "X" complete events with timestamps
// and durations in microseconds of virtual time. Output is
// deterministic: identical runs export identical bytes.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	tids := map[string]int{}
	var names []string
	for _, sp := range r.spans {
		if _, ok := tids[sp.Proc]; !ok {
			tids[sp.Proc] = len(names)
			names = append(names, sp.Proc)
		}
	}
	events := make([]perfettoEvent, 0, len(r.spans)+len(names))
	for i, n := range names {
		events = append(events, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: i,
			Args: &perfettoArgs{Name: n},
		})
	}
	const usec = 1e6
	for _, sp := range r.spans {
		ev := perfettoEvent{
			Name: sp.Category.String(),
			Cat:  sp.Category.String(),
			Ph:   "X",
			Ts:   sp.Start * usec,
			Dur:  (sp.End - sp.Start) * usec,
			Pid:  0,
			Tid:  tids[sp.Proc],
		}
		if sp.Resource != "" || sp.Phase != "" || sp.Bytes != 0 || sp.Device != sim.DeviceUnknown {
			ev.Args = &perfettoArgs{Resource: sp.Resource, Phase: sp.Phase, Bytes: sp.Bytes}
			if sp.Device != sim.DeviceUnknown {
				ev.Args.Device = sp.Device.String()
			}
		}
		events = append(events, ev)
	}
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	for i, ev := range events {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// WriteSpansCSV exports the spans as RFC-4180 CSV. The header is the
// span schema's canonical field list (SpanFieldNames), currently
// "start_s,end_s,category,device,process,resource,phase,bytes"; the
// device column is empty for spans whose emitter declared no device.
// ReadSpansCSV reads this format back (and the older header without
// the device column).
func (r *Recorder) WriteSpansCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(SpanFieldNames()); err != nil {
		return err
	}
	for _, sp := range r.spans {
		rec := RecordOf(sp)
		row := []string{
			strconv.FormatFloat(rec.Start, 'f', 9, 64),
			strconv.FormatFloat(rec.End, 'f', 9, 64),
			rec.Category,
			rec.Device,
			rec.Proc,
			rec.Resource,
			rec.Phase,
			strconv.FormatInt(rec.Bytes, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
