package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func TestPlanDigestStablePerSeed(t *testing.T) {
	a, b := newPlan(1, 20).digest(), newPlan(1, 20).digest()
	if a != b {
		t.Fatalf("seed 1 gave two digests: %s, %s", a, b)
	}
	seen := map[string]int64{a: 1}
	for seed := int64(2); seed <= 6; seed++ {
		d := newPlan(seed, 20).digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("seeds %d and %d share digest %s", prev, seed, d)
		}
		seen[d] = seed
	}
}

func TestPlanShape(t *testing.T) {
	p := newPlan(3, 20)
	points := 0
	for _, g := range p.ModelGrids {
		points += g.NumPoints()
	}
	if points != 20000 {
		t.Errorf("model grids have %d points, want 20000", points)
	}
	for _, g := range append(p.SimGrids, p.ModelGrids...) {
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
	}
	if want := int((mixedWarmup+20)*mixedRate) + 1; len(p.Mixed) != want {
		t.Errorf("mixed schedule has %d ticks, want %d", len(p.Mixed), want)
	}
	if len(simUniverse()) != 720 {
		t.Errorf("sim universe has %d keys, want 720", len(simUniverse()))
	}
	for _, op := range p.Mixed {
		if op.Design != nil {
			if n := op.Design.Grid.NumPoints(); n < 100 || n > 500 {
				t.Errorf("design grid has %d points, want 100-500", n)
			}
		}
	}
	// A longer window extends the schedule without changing its prefix.
	long := newPlan(3, 30)
	for i := range p.Mixed {
		a, _ := json.Marshal(p.Mixed[i])
		b, _ := json.Marshal(long.Mixed[i])
		if string(a) != string(b) {
			t.Fatalf("tick %d differs between 20 s and 30 s schedules", i)
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(ten, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{3, 1, 2}) != 2 {
		t.Error("median")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7, 7, 7, 7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: union 10-60
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 6, Name: "open", Start: 5, End: -1},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 10, 4: 30, 5: 30, 6: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
}

func TestSpanRecorderNesting(t *testing.T) {
	r := newSpanRecorder()
	root := r.begin("root", 0, 7)
	r.timed("child", root, 7, func() {})
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 7 || spans[0].End < spans[1].End {
		t.Fatalf("bad spans %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRule(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, b := range base {
		faster[i], slower[i] = b*0.8, b*1.15
	}
	cases := []struct {
		name         string
		base, head   []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"clear gain, lower is better", base, faster, false, 0.1, "better"},
		{"clear gain, higher is better", faster, base, true, 0.1, "better"},
		{"past the bound", base, slower, false, 0.1, "worse"},
		{"within the bound", base, base, false, 0.1, "unchanged"},
		{"8 of 10 wins is not a gain", base, append(append([]float64{}, faster[:8]...), 150, 150), false, 0.5, "unchanged"},
		{"too few pairs to claim", base[:5], faster[:5], false, 0.1, "unchanged"},
		{"spread wider than the bound", []float64{50, 150, 60, 140, 100, 55, 145, 100, 90, 110}, base, false, 0.1, "unresolved"},
		{"no bound, too few pairs", base[:4], slower[:4], false, 0, "unresolved"},
		{"no bound, consistent loss", base, slower, false, 0, "worse"},
	}
	for _, c := range cases {
		if got := judge(c.base, c.head, c.higherBetter, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// smallPlan shrinks a seed's plan so every workload finishes in about
// a second.
func smallPlan(seed int64) *plan {
	p := newPlan(seed, 1)
	p.SimGrids = p.SimGrids[:5] // one machine, one grid per app, smallest size only
	for i := range p.SimGrids {
		p.SimGrids[i].N = p.SimGrids[i].N[:1]
	}
	for i := range p.ModelGrids {
		g := &p.ModelGrids[i]
		g.PEs, g.BF, g.L = g.PEs[:3], g.BF[:3], g.L[:2]
	}
	p.HotKeys = p.HotKeys[:32]
	for i := range p.HotStream {
		p.HotStream[i] %= len(p.HotKeys)
	}
	p.MixedPrefill = p.MixedPrefill[:64]
	p.JobGrid.N, p.JobGrid.B = []int{1200}, []int{240}
	return p
}

func specNames(t *testing.T) (e2e, layer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		E []metricSpec `json:"end_to_end"`
		L []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.E {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.L {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	return e2e, layer
}

func checkMetricSet(t *testing.T, rep *report, want []string) {
	t.Helper()
	got := sortedKeys(rep.Metrics)
	if len(got) != len(want) {
		t.Fatalf("%s: metrics %v, want %v", rep.Workload, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: metrics %v, want %v", rep.Workload, got, want)
		}
		if v := rep.Metrics[got[i]].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v", rep.Workload, got[i], v)
		}
	}
}

// TestSmoke runs every workload and the traced ledger on a shrunken
// plan with a one-second window.
func TestSmoke(t *testing.T) {
	e2e, layer := specNames(t)
	c := &runCtx{seconds: 1, plan: smallPlan(2)}
	for _, w := range workloadOrder {
		rep := newReport(w, 2, false, 1)
		if err := workloads[w](c, rep); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		rep.set("max_rss_mb", maxRSSMB(), "MB")
		checkMetricSet(t, rep, e2e)
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d, checks %+v", w, rep.Attempted, rep.Failed, rep.Checks)
		}
		for _, m := range e2e {
			if rep.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, m, rep.Metrics[m].Value)
			}
		}
	}
	rep := newReport("sweep-sim", 2, true, 1)
	if err := runTraced(c, rep, filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
	checkMetricSet(t, rep, layer)
	if rep.Failed != 0 {
		t.Errorf("traced: failed %d, checks %+v", rep.Failed, rep.Checks)
	}
}
