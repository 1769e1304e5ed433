package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// checkWriteJSON requires WriteJSON to match the reference encoder byte
// for byte, or both to fail with the same message and WriteJSON to
// have written nothing.
func checkWriteJSON(t *testing.T, r *Result) {
	t.Helper()
	want, wantErr := referenceJSON(r)
	var got bytes.Buffer
	gotErr := r.WriteJSON(&got)
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("WriteJSON error %v, reference error %v", gotErr, wantErr)
		}
		if got.Len() != 0 {
			t.Fatalf("WriteJSON wrote %d bytes before failing", got.Len())
		}
	case !bytes.Equal(got.Bytes(), want):
		i := 0
		for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("WriteJSON differs from the reference at byte %d:\n got: %q\nwant: %q",
			i, got.Bytes()[lo:min(got.Len(), i+80)], want[lo:min(len(want), i+80)])
	}
}

// handResult wraps hand-built records in a Result as reduce would.
func handResult(recs ...Record) *Result {
	points := make([]Point, len(recs))
	outcomes := make([]Outcome, len(recs))
	for i, rec := range recs {
		points[i], outcomes[i] = rec.Point, rec.Outcome
	}
	return reduce(Grid{}, points, outcomes, Stats{})
}

func TestWriteJSONMatchesEncoder(t *testing.T) {
	run := func(t *testing.T, g Grid) *Result {
		t.Helper()
		res, err := Run(context.Background(), g, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t.Run("model grid", func(t *testing.T) {
		checkWriteJSON(t, run(t, Grid{
			Apps:     []string{"lu", "fw", "mm", "spmv"},
			Machines: []string{"xd1", "src6"},
			PEs:      []int{0, 2, 8, 12},
			BF:       []int{-1, 512},
			L:        []int{-1, 2},
			Density:  []float64{0, 0.05},
		}))
	})
	t.Run("sim grid", func(t *testing.T) {
		res := run(t, Grid{
			Apps: []string{"lu", "spmv"}, N: []int{120}, B: []int{40}, PEs: []int{2, 4},
			Density: []float64{0, 0.1}, Method: MethodSim,
		})
		measured := false
		for _, o := range res.Outcomes {
			measured = measured || o.OverlapEfficiency != 0 && o.Binding != ""
		}
		if !measured {
			t.Fatal("no sim outcome carries overlap_eff and a measured binding")
		}
		checkWriteJSON(t, res)
	})
	t.Run("screened", func(t *testing.T) {
		res, err := RunScreened(context.Background(), Grid{
			Apps: []string{"mm"}, N: []int{480, 960}, PEs: []int{2, 4, 8}, BF: []int{-1, 0, 96, 192, 480},
		}, ScreenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Screen == nil {
			t.Fatal("screened result has no screen summary")
		}
		checkWriteJSON(t, res)
	})
	t.Run("all infeasible", func(t *testing.T) {
		res := run(t, Grid{Apps: []string{"lu"}, Nodes: []int{8}, PEs: []int{0, 10}})
		if res.ParetoIndices != nil {
			t.Fatalf("pareto = %v, want nil", res.ParetoIndices)
		}
		checkWriteJSON(t, res)
	})
	t.Run("empty and nil records", func(t *testing.T) {
		checkWriteJSON(t, &Result{Records: []Record{}})
		checkWriteJSON(t, &Result{})
	})
	t.Run("escaped strings", func(t *testing.T) {
		var recs []Record
		for i, s := range []string{
			"a<b", "c>d", "e&f", `a "quote"`, `a \ backslash`, "tab\tnewline\nnul\x00",
			"non-ASCII: µs → Ω", "line sep \u2028 para sep \u2029", "invalid \xff\xfe utf-8", "\x7f",
		} {
			recs = append(recs, Record{
				Point:   Point{Index: i, App: s, Machine: "xd1", Mode: s},
				Outcome: Outcome{Err: s, Binding: s},
			})
		}
		checkWriteJSON(t, handResult(recs...))
	})
	t.Run("float forms", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		var recs []Record
		for i, v := range []float64{1e-7, -1e-7, 1e-6, 1e21, -1e21, 1e20, negZero, 5e-324,
			math.MaxFloat64, 0.1, 123456789.125, 1.5e-10} {
			recs = append(recs, Record{
				Point:   Point{Index: i, Density: v},
				Outcome: Outcome{OK: true, GFLOPS: v, Margin: v, BdGBps: -v},
			})
		}
		checkWriteJSON(t, handResult(recs...))
	})
	t.Run("float memo", func(t *testing.T) {
		// More distinct values than memo slots, each recurring among
		// the others, so slots are evicted and refilled; GFLOPS repeats
		// as pred_gflops in the same record, a hit on the slot just
		// filled.
		vals := make([]float64, 0, 3*memoSlots)
		for i := 1; len(vals) < cap(vals); i++ {
			v := float64(i) * 1.1
			switch i % 3 {
			case 1:
				v *= 1e-9 // 'e' form below 1e-6
			case 2:
				v *= -1e19 // both forms around 1e21
			}
			vals = append(vals, v)
		}
		negZero := math.Copysign(0, -1)
		recs := make([]Record, 1200)
		for i := range recs {
			at := func(stride int) float64 { return vals[i*stride%len(vals)] }
			density := at(1)
			switch i % 8 {
			case 0:
				density = 0
			case 1:
				density = negZero
			}
			recs[i] = Record{
				Point: Point{Index: i, App: "spmv", Machine: "xd1", Mode: "hybrid", Density: density, BF: -1, L: -1},
				Outcome: Outcome{
					OK: true, K: i % 16, FfMHz: at(7), BdGBps: at(11), GFLOPS: at(13), Seconds: at(17),
					PredictedGFLOPS: at(13), OverlapEfficiency: at(19), Binding: "Bd", Margin: at(23),
				},
			}
			if i%5 == 0 {
				recs[i].Outcome = Outcome{Err: "k <&> budget", Margin: at(3)}
			}
		}
		checkWriteJSON(t, handResult(recs...))
	})
	t.Run("non-finite in the last of many records", func(t *testing.T) {
		recs := make([]Record, 2000)
		for i := range recs {
			recs[i] = Record{
				Point:   Point{Index: i, Density: 0.01},
				Outcome: Outcome{OK: true, GFLOPS: float64(i) + 0.5, PredictedGFLOPS: float64(i) + 0.5},
			}
		}
		last := &recs[len(recs)-1].Outcome
		last.Margin = math.NaN()
		checkWriteJSON(t, handResult(recs...))
		// The first non-finite value in field order is the one reported.
		last.Seconds = math.Inf(-1)
		checkWriteJSON(t, handResult(recs...))
	})
	t.Run("non-finite", func(t *testing.T) {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			res := handResult(Record{Outcome: Outcome{OK: true, Seconds: v}})
			checkWriteJSON(t, res)
			var got bytes.Buffer
			var unsupported *json.UnsupportedValueError
			if err := res.WriteJSON(&got); !errors.As(err, &unsupported) {
				t.Fatalf("WriteJSON(%v) = %v, want *json.UnsupportedValueError", v, err)
			}
			checkWriteJSON(t, handResult(Record{Point: Point{Density: v}}))
		}
	})
}

// TestWriteJSONEmitsEveryField sets every json-tagged field of Point
// and Outcome to a non-zero value by reflection, so a field added to
// either type without a matching line in appendRecord fails here.
func TestWriteJSONEmitsEveryField(t *testing.T) {
	var rec Record
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			if tag := sf.Tag.Get("json"); tag == "" || tag == "-" {
				continue
			}
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(int64(i + 1))
			case reflect.Float64:
				f.SetFloat(float64(i) + 0.25)
			case reflect.String:
				f.SetString(sf.Name)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("%s.%s has kind %s, which the record encoder does not handle", v.Type(), sf.Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&rec.Point).Elem())
	fill(reflect.ValueOf(&rec.Outcome).Elem())
	checkWriteJSON(t, &Result{Records: []Record{rec}})
	// A NaN in any float field must fail as the reference does, so a
	// float field missing from checkFinite fails here too.
	for _, v := range []reflect.Value{reflect.ValueOf(&rec.Point).Elem(), reflect.ValueOf(&rec.Outcome).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Float64 {
				old := f.Float()
				f.SetFloat(math.NaN())
				checkWriteJSON(t, &Result{Records: []Record{rec}})
				f.SetFloat(old)
			}
		}
	}
}

// FuzzWriteJSON drives the record encoder's string, float and int
// fields through three records, two different and a repeat of the
// first; the output must match the reference encoder byte for byte or
// fail the same way.
func FuzzWriteJSON(f *testing.F) {
	f.Add("", "Bd", 0.1, 130.0, 1.6, 3.2, 0.5, 3.1, 0.75, 0.01, 8, 16, 20000, 40, 64, 2400, 600, 3, 0, 0)
	f.Add("<&> \"q\" \\", "Op*Fp", math.Copysign(0, -1), 1e-7, 1e21, -1e-7, 5e-324, 1e20, -0.0, 1e-6, -1, 0, 1, 2, 3, -4, 5, 6, 7, 8)
	f.Add("\u2028\xff\x00", "µs", 1.0, math.NaN(), math.Inf(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, errText, binding string, density, ff, bd, gflops, seconds, pred, overlap, margin float64,
		k, of, slices, brams, mults, bf, bp, l, l1, l2 int) {
		rec := Record{
			Point: Point{Index: 1, App: "spmv", Machine: "xd1", Mode: "hybrid", Density: density, BF: -1, L: -1},
			Outcome: Outcome{
				OK: errText == "", Err: errText, K: k, Of: of, FfMHz: ff,
				Slices: slices, BlockRAMs: brams, Multipliers: mults, BdGBps: bd,
				BF: bf, BP: bp, L: l, L1: l1, L2: l2,
				GFLOPS: gflops, Seconds: seconds, PredictedGFLOPS: pred, OverlapEfficiency: overlap,
				Binding: binding, Margin: margin,
			},
		}
		// A second record of the same fuzzed values in other fields,
		// then the first again: the repeat meets a memo that the
		// second record's values went through.
		other := rec
		o := &other.Outcome
		other.Point.Density, o.FfMHz, o.BdGBps, o.GFLOPS, o.Seconds, o.PredictedGFLOPS, o.OverlapEfficiency, o.Margin =
			ff, bd, gflops, seconds, pred, overlap, margin, density
		o.Err, o.Binding, o.OK = binding, errText, binding == ""
		o.K, o.Of, o.Slices, o.BlockRAMs, o.Multipliers, o.BF, o.BP, o.L, o.L1, o.L2 =
			l2, l1, l, bp, bf, mults, brams, slices, of, k
		checkWriteJSON(t, &Result{Records: []Record{rec, other, rec}})
	})
}

// benchGrid is a 5,000-point model grid over every machine preset:
// 4 machines x 10 PE counts x 25 row splits x 5 pipeline depths.
func benchGrid() Grid {
	bf := []int{-1}
	for v := 0; len(bf) < 25; v += 125 {
		bf = append(bf, v)
	}
	return Grid{
		Apps:     []string{"lu"},
		Machines: []string{"xd1", "xt3", "src6", "rasc"},
		PEs:      []int{0, 1, 2, 3, 4, 6, 8, 10, 12, 16},
		BF:       bf,
		L:        []int{-1, 1, 2, 4, 6},
	}
}

func benchResult(b *testing.B) *Result {
	b.Helper()
	res, err := Run(context.Background(), benchGrid(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Points) != 5000 {
		b.Fatalf("bench grid has %d points, want 5000", len(res.Points))
	}
	return res
}

// BenchmarkWriteJSON is the encode layer of a model sweep.
func BenchmarkWriteJSON(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// reduceSink keeps the benchmarked reduce from being optimized away.
var reduceSink *Result

// BenchmarkReduce is the reduce layer of a model sweep: error count,
// Pareto frontier, sensitivity tables and records. Re-marking an
// already marked frontier does the same work, so the outcomes are
// reused across iterations.
func BenchmarkReduce(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduceSink = reduce(res.Grid, res.Points, res.Outcomes, Stats{})
	}
}
