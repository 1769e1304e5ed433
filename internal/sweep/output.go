package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// WriteJSON serializes the full result — grid, per-point records,
// Pareto indices, sensitivity tables, stats — as indented JSON. The
// bytes are a pure function of the grid: identical grids yield
// identical output whatever the worker count.
//
// The output is byte-identical to a json.Encoder with SetIndent("",
// "  "). The per-point records, nearly all of the bytes, go through a
// single-pass encoder that writes the indentation directly; the small
// sections keep json.MarshalIndent. The whole document is built before
// one Write, so an error (a non-finite float) writes nothing.
func (r *Result) WriteJSON(w io.Writer) error {
	e := jsonEncoder{b: make([]byte, 0, 1024+recordBytes*len(r.Records))}
	e.result(r)
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.b)
	return err
}

// recordBytes approximates one encoded record, to size WriteJSON's
// buffer up front.
const recordBytes = 700

// jsonEncoder appends a Result in encoding/json's exact indented form.
// The first error sets err; the output is then discarded.
type jsonEncoder struct {
	b   []byte
	err error
}

// result appends the document. Its top-level keys follow Result's
// field order.
func (e *jsonEncoder) result(r *Result) {
	e.b = append(e.b, "{\n  \"grid\": "...)
	e.indented(r.Grid)
	e.b = append(e.b, ",\n  \"results\": "...)
	e.records(r.Records)
	e.b = append(e.b, ",\n  \"pareto\": "...)
	e.indented(r.ParetoIndices)
	e.b = append(e.b, ",\n  \"sensitivity\": "...)
	e.indented(r.Sensitivity)
	e.b = append(e.b, ",\n  \"stats\": "...)
	e.indented(r.Stats)
	if r.Screen != nil {
		e.b = append(e.b, ",\n  \"screen\": "...)
		e.indented(r.Screen)
	}
	e.b = append(e.b, "\n}\n"...)
}

// indented appends a small top-level section through encoding/json,
// indented one level deep.
func (e *jsonEncoder) indented(v any) {
	b, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil && e.err == nil {
		e.err = err
	}
	e.b = append(e.b, b...)
}

// records appends the "results" array: records at depth 2, their
// point and outcome fields at depth 4.
func (e *jsonEncoder) records(recs []Record) {
	if recs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	if len(recs) == 0 {
		e.b = append(e.b, "[]"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range recs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.record(&recs[i])
	}
	e.b = append(e.b, "\n  ]"...)
}

// record appends one Record. Every json-tagged field of Point and
// Outcome appears here, in declaration order, with Outcome's omitempty
// fields skipped at their zero value; TestWriteJSONEmitsEveryField
// fails when either type gains a field this list lacks.
func (e *jsonEncoder) record(rec *Record) {
	p, o := &rec.Point, &rec.Outcome
	e.b = append(e.b, "\n    {\n      \"point\": {\n        \"index\": "...)
	e.b = strconv.AppendInt(e.b, int64(p.Index), 10)
	e.str("app", p.App)
	e.str("machine", p.Machine)
	e.str("mode", p.Mode)
	e.int("nodes", p.Nodes)
	e.int("n", p.N)
	e.float("density", p.Density)
	e.int("b", p.B)
	e.int("pes", p.PEs)
	e.int("bf", p.BF)
	e.int("l", p.L)
	e.b = append(e.b, "\n      },\n      \"outcome\": {\n        \"ok\": "...)
	e.b = strconv.AppendBool(e.b, o.OK)
	e.omitStr("err", o.Err)
	e.omitInt("k", o.K)
	e.omitInt("of", o.Of)
	e.omitFloat("ff_mhz", o.FfMHz)
	e.omitInt("slices", o.Slices)
	e.omitInt("brams", o.BlockRAMs)
	e.omitInt("mults", o.Multipliers)
	e.omitFloat("bd_gbps", o.BdGBps)
	e.omitInt("bf", o.BF)
	e.omitInt("bp", o.BP)
	e.omitInt("l", o.L)
	e.omitInt("l1", o.L1)
	e.omitInt("l2", o.L2)
	e.omitFloat("gflops", o.GFLOPS)
	e.omitFloat("seconds", o.Seconds)
	e.omitFloat("pred_gflops", o.PredictedGFLOPS)
	e.omitFloat("overlap_eff", o.OverlapEfficiency)
	e.omitStr("binding", o.Binding)
	e.omitFloat("margin", o.Margin)
	if o.Pareto {
		e.key("pareto")
		e.b = append(e.b, "true"...)
	}
	e.b = append(e.b, "\n      }\n    }"...)
}

// key starts the record field named k after its predecessor.
func (e *jsonEncoder) key(k string) {
	e.b = append(e.b, ",\n        \""...)
	e.b = append(e.b, k...)
	e.b = append(e.b, "\": "...)
}

func (e *jsonEncoder) int(k string, v int) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

func (e *jsonEncoder) str(k, v string) {
	e.key(k)
	e.quote(v)
}

// float appends v as encoding/json does: the shortest 'f' form, or 'e'
// outside [1e-6, 1e21) with a one-digit negative exponent trimmed
// (e-07 -> e-7). NaN and ±Inf are unsupported values.
func (e *jsonEncoder) float(k string, v float64) {
	e.key(k)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, v, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// omitInt, omitFloat and omitStr skip a zero value as omitempty does;
// a float -0 counts as zero.
func (e *jsonEncoder) omitInt(k string, v int) {
	if v != 0 {
		e.int(k, v)
	}
}

func (e *jsonEncoder) omitFloat(k string, v float64) {
	if v != 0 {
		e.float(k, v)
	}
}

func (e *jsonEncoder) omitStr(k, v string) {
	if v != "" {
		e.str(k, v)
	}
}

// quote appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and the HTML-sensitive <, > and & is copied
// verbatim; any other byte hands the whole string to json.Marshal,
// whose escaping of control bytes, U+2028/U+2029 and invalid UTF-8 the
// output must match.
func (e *jsonEncoder) quote(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// csvHeader is the flat per-point column set of WriteCSV.
var csvHeader = []string{
	"index", "app", "machine", "mode", "nodes", "n", "density", "b", "pes",
	"ok", "err", "k", "of", "ff_mhz", "slices", "brams", "mults", "bd_gbps",
	"bf", "bp", "l", "l1", "l2",
	"gflops", "seconds", "pred_gflops", "overlap_eff", "binding", "margin", "pareto",
}

// WriteCSV serializes one row per point with the resolved design,
// throughput and binding columns — the spreadsheet-friendly view of
// WriteJSON's records.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range r.Points {
		pt, o := r.Points[i], r.Outcomes[i]
		row := []string{
			strconv.Itoa(pt.Index), pt.App, pt.Machine, pt.Mode,
			strconv.Itoa(pt.Nodes), strconv.Itoa(pt.N), f(pt.Density), strconv.Itoa(pt.B), strconv.Itoa(pt.PEs),
			strconv.FormatBool(o.OK), o.Err,
			strconv.Itoa(o.K), strconv.Itoa(o.Of), f(o.FfMHz),
			strconv.Itoa(o.Slices), strconv.Itoa(o.BlockRAMs), strconv.Itoa(o.Multipliers), f(o.BdGBps),
			strconv.Itoa(o.BF), strconv.Itoa(o.BP),
			strconv.Itoa(o.L), strconv.Itoa(o.L1), strconv.Itoa(o.L2),
			f(o.GFLOPS), f(o.Seconds), f(o.PredictedGFLOPS), f(o.OverlapEfficiency),
			o.Binding, f(o.Margin), strconv.FormatBool(o.Pareto),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFrontier prints the Pareto-optimal points as a compact
// human-readable table, one line per frontier member.
func (r *Result) WriteFrontier(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-6s %-4s %-8s %-15s %4s %8s %7s %8s %9s %s\n",
		"index", "app", "machine", "mode", "k", "ff_mhz", "slices", "bd_gb/s", "gflops", "binding"); err != nil {
		return err
	}
	for _, i := range r.ParetoIndices {
		pt, o := r.Points[i], r.Outcomes[i]
		if _, err := fmt.Fprintf(w, "%-6d %-4s %-8s %-15s %4d %8.2f %7d %8.2f %9.3f %s\n",
			pt.Index, pt.App, pt.Machine, pt.Mode,
			o.K, o.FfMHz, o.Slices, o.BdGBps, o.GFLOPS, o.Binding); err != nil {
			return err
		}
	}
	return nil
}
