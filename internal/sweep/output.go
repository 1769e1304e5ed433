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
// "  "). The per-point records, nearly all of the bytes, go through
// appendRecord, which writes the indentation directly; the small
// sections keep json.MarshalIndent. Every record float is checked
// before any is encoded, and the whole document is built before one
// Write, so an error (a non-finite float) writes nothing.
func (r *Result) WriteJSON(w io.Writer) error {
	b := make([]byte, 0, 1024+recordBytes*len(r.Records))
	b = append(b, "{\n  \"grid\": "...)
	b, err := appendIndented(b, r.Grid)
	if err != nil {
		return err
	}
	if err := checkFinite(r.Records); err != nil {
		return err
	}
	b = append(b, ",\n  \"results\": "...)
	b = appendRecords(b, r.Records)
	sections := [...]struct {
		key string
		v   any
	}{
		{",\n  \"pareto\": ", r.ParetoIndices},
		{",\n  \"sensitivity\": ", r.Sensitivity},
		{",\n  \"stats\": ", r.Stats},
		{",\n  \"screen\": ", r.Screen},
	}
	n := len(sections)
	if r.Screen == nil {
		n-- // "screen" is omitempty
	}
	for _, s := range sections[:n] {
		b = append(b, s.key...)
		if b, err = appendIndented(b, s.v); err != nil {
			return err
		}
	}
	b = append(b, "\n}\n"...)
	_, err = w.Write(b)
	return err
}

// recordBytes approximates one encoded record, to size WriteJSON's
// buffer up front.
const recordBytes = 700

// appendIndented appends a small top-level section through
// encoding/json, indented one level deep.
func appendIndented(b []byte, v any) ([]byte, error) {
	s, err := json.MarshalIndent(v, "  ", "  ")
	return append(b, s...), err
}

// checkFinite returns the error encoding/json reports for the first
// NaN or ±Inf among the record floats, in document order, so that
// appendRecords never meets one.
func checkFinite(recs []Record) error {
	for i := range recs {
		p, o := &recs[i].Point, &recs[i].Outcome
		for _, v := range [...]float64{p.Density, o.FfMHz, o.BdGBps, o.GFLOPS,
			o.Seconds, o.PredictedGFLOPS, o.OverlapEfficiency, o.Margin} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
			}
		}
	}
	return nil
}

// appendRecords appends the "results" array: records at depth 2, their
// point and outcome fields at depth 4. Every float must be finite.
func appendRecords(b []byte, recs []Record) []byte {
	if recs == nil {
		return append(b, "null"...)
	}
	if len(recs) == 0 {
		return append(b, "[]"...)
	}
	var m floatMemo
	b = append(b, '[')
	for i := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRecord(b, &recs[i], &m)
	}
	return append(b, "\n  ]"...)
}

// appendRecord appends one Record. Every json-tagged field of Point and
// Outcome appears here, in declaration order, with Outcome's omitempty
// fields skipped at their zero value; TestWriteJSONEmitsEveryField
// fails when either type gains a field this list lacks.
func appendRecord(b []byte, rec *Record, m *floatMemo) []byte {
	p, o := &rec.Point, &rec.Outcome
	b = append(b, "\n    {\n      \"point\": {\n        \"index\": "...)
	b = strconv.AppendInt(b, int64(p.Index), 10)
	b = appendStr(b, "app", p.App)
	b = appendStr(b, "machine", p.Machine)
	b = appendStr(b, "mode", p.Mode)
	b = appendInt(b, "nodes", p.Nodes)
	b = appendInt(b, "n", p.N)
	b = m.appendFloat(appendKey(b, "density"), p.Density)
	b = appendInt(b, "b", p.B)
	b = appendInt(b, "pes", p.PEs)
	b = appendInt(b, "bf", p.BF)
	b = appendInt(b, "l", p.L)
	b = append(b, "\n      },\n      \"outcome\": {\n        \"ok\": "...)
	b = strconv.AppendBool(b, o.OK)
	b = appendOmitStr(b, "err", o.Err)
	b = appendOmitInt(b, "k", o.K)
	b = appendOmitInt(b, "of", o.Of)
	b = m.appendOmit(b, "ff_mhz", o.FfMHz)
	b = appendOmitInt(b, "slices", o.Slices)
	b = appendOmitInt(b, "brams", o.BlockRAMs)
	b = appendOmitInt(b, "mults", o.Multipliers)
	b = m.appendOmit(b, "bd_gbps", o.BdGBps)
	b = appendOmitInt(b, "bf", o.BF)
	b = appendOmitInt(b, "bp", o.BP)
	b = appendOmitInt(b, "l", o.L)
	b = appendOmitInt(b, "l1", o.L1)
	b = appendOmitInt(b, "l2", o.L2)
	b = m.appendOmit(b, "gflops", o.GFLOPS)
	b = m.appendOmit(b, "seconds", o.Seconds)
	b = m.appendOmit(b, "pred_gflops", o.PredictedGFLOPS)
	b = m.appendOmit(b, "overlap_eff", o.OverlapEfficiency)
	b = appendOmitStr(b, "binding", o.Binding)
	b = m.appendOmit(b, "margin", o.Margin)
	if o.Pareto {
		b = append(appendKey(b, "pareto"), "true"...)
	}
	return append(b, "\n      }\n    }"...)
}

// appendKey starts the record field named k after its predecessor.
func appendKey(b []byte, k string) []byte {
	b = append(b, ",\n        \""...)
	b = append(b, k...)
	return append(b, "\": "...)
}

func appendInt(b []byte, k string, v int) []byte {
	return strconv.AppendInt(appendKey(b, k), int64(v), 10)
}

func appendStr(b []byte, k, v string) []byte {
	return appendQuoted(appendKey(b, k), v)
}

// appendOmitInt, appendOmitStr and floatMemo.appendOmit skip a zero
// value as omitempty does; a float -0 counts as zero.
func appendOmitInt(b []byte, k string, v int) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, k, v)
}

func appendOmitStr(b []byte, k, v string) []byte {
	if v == "" {
		return b
	}
	return appendStr(b, k, v)
}

// verbatim marks the bytes appendQuoted may copy unescaped: printable
// ASCII other than the quote, the backslash and the HTML-sensitive <,
// > and &.
var verbatim = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendQuoted appends s as a JSON string. Any byte outside verbatim
// hands the whole string to json.Marshal, whose escaping of control
// bytes, U+2028/U+2029 and invalid UTF-8 the output must match.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !verbatim[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// floatMemo is a direct-mapped cache of the JSON text of recent record
// floats, so repeated values (a density, a clock, a bandwidth, GFLOPS
// repeated as pred_gflops) skip the shortest-digit search. A slot is
// keyed and tag-checked on the value's full bit pattern, so a hit
// copies exactly the text that value formats to (-0 and +0 differ in
// bits, as in text). A memo lives for one appendRecords call.
type floatMemo [memoSlots]memoEntry

// memoBits sets the memo size: 1<<memoBits slots.
const (
	memoBits  = 6
	memoSlots = 1 << memoBits
)

// memoEntry is one slot: a value's bits and its text, n bytes long
// (n == 0 marks an empty slot; no float formats to nothing). The
// longest text appendFloat writes is 25 bytes.
type memoEntry struct {
	bits uint64
	n    uint8
	text [31]byte
}

// memoSlot maps a float's bits to its slot with a Fibonacci hash.
func memoSlot(bits uint64) int {
	return int(bits * 0x9e3779b97f4a7c15 >> (64 - memoBits))
}

func (m *floatMemo) appendOmit(b []byte, k string, v float64) []byte {
	if v == 0 {
		return b
	}
	return m.appendFloat(appendKey(b, k), v)
}

// appendFloat appends finite v as encoding/json does: the shortest 'f'
// form, or 'e' outside [1e-6, 1e21) with a one-digit negative exponent
// trimmed (e-07 -> e-7).
func (m *floatMemo) appendFloat(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	e := &m[memoSlot(bits)]
	if e.bits == bits && e.n != 0 {
		return append(b, e.text[:e.n]...)
	}
	start := len(b)
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	if n := len(b) - start; n <= len(e.text) {
		e.bits, e.n = bits, uint8(copy(e.text[:], b[start:]))
	}
	return b
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
