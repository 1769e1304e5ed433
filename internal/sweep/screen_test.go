package sweep

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestMarkParetoTiesAndDuplicates(t *testing.T) {
	ok := func(g, s, bd float64) Outcome {
		return Outcome{OK: true, GFLOPS: g, Slices: int(s), BdGBps: bd}
	}
	cases := []struct {
		name     string
		outcomes []Outcome
		want     []int
	}{
		{
			// Exact duplicates never eliminate each other: neither is
			// strictly better on any objective.
			name:     "duplicates both on frontier",
			outcomes: []Outcome{ok(10, 100, 1), ok(10, 100, 1)},
			want:     []int{0, 1},
		},
		{
			// A tie on two objectives with a strict win on the third is
			// domination.
			name:     "two-axis tie one-axis win dominates",
			outcomes: []Outcome{ok(10, 100, 1), ok(11, 100, 1)},
			want:     []int{1},
		},
		{
			// Mutually non-dominated: each wins one objective.
			name:     "trade-off keeps both",
			outcomes: []Outcome{ok(10, 100, 1), ok(12, 200, 1)},
			want:     []int{0, 1},
		},
		{
			// A duplicate pair plus a strict dominator: the dominator
			// eliminates both copies.
			name:     "dominator beats duplicate pair",
			outcomes: []Outcome{ok(10, 100, 1), ok(10, 100, 1), ok(11, 90, 1)},
			want:     []int{2},
		},
		{
			// Infeasible points neither join nor defend the frontier,
			// even with unbeatable numbers.
			name:     "infeasible ignored",
			outcomes: []Outcome{{OK: false, GFLOPS: 99}, ok(10, 100, 1)},
			want:     []int{1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outcomes := append([]Outcome(nil), tc.outcomes...)
			got := markPareto(outcomes)
			if len(got) != len(tc.want) {
				t.Fatalf("frontier = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("frontier = %v, want %v", got, tc.want)
				}
			}
			for i := range outcomes {
				onFrontier := false
				for _, j := range got {
					onFrontier = onFrontier || i == j
				}
				if outcomes[i].Pareto != onFrontier {
					t.Errorf("outcome %d: Pareto=%v, frontier membership=%v", i, outcomes[i].Pareto, onFrontier)
				}
			}
			checkReduceMatchesReference(t, make([]Point, len(tc.outcomes)), tc.outcomes)
		})
	}

	// Seeded random outcome sets from 0 to 2,000 points. Few objective
	// levels force heavy ties on every axis; copies of earlier outcomes
	// make exact duplicates; infeasible points carry unbeatable numbers.
	for _, n := range []int{0, 1, 2, 3, 7, 40, 300, 2000} {
		for _, levels := range []int{2, 5, 40, 1 << 30} {
			r := rand.New(rand.NewSource(int64(n*31 + levels)))
			points, outcomes := randomReduceInput(r, n, levels)
			t.Run(fmt.Sprintf("random n=%d levels=%d", n, levels), func(t *testing.T) {
				checkReduceMatchesReference(t, points, outcomes)
			})
		}
	}

	// A real multi-axis grid, in enumeration order.
	res, err := Run(context.Background(), Grid{
		Apps: []string{"lu", "mm"}, Machines: []string{"xd1", "rasc"},
		PEs: []int{0, 2, 4, 8}, BF: []int{-1, 0, 240, 480}, L: []int{-1, 2},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	outcomes := append([]Outcome(nil), res.Outcomes...)
	for i := range outcomes {
		outcomes[i].Pareto = false
	}
	checkReduceMatchesReference(t, res.Points, outcomes)
}

// randomReduceInput draws n points and outcomes whose objectives take
// one of levels values each. Density mixes -0 with 0, which format as
// different sensitivity rows.
func randomReduceInput(r *rand.Rand, n, levels int) ([]Point, []Outcome) {
	apps := []string{"lu", "fw", "mm", "spmv"}
	densities := []float64{0, math.Copysign(0, -1), 0.01, 0.1}
	points := make([]Point, n)
	outcomes := make([]Outcome, n)
	for i := range points {
		points[i] = Point{
			Index: i, App: apps[r.Intn(len(apps))], Machine: "xd1", Mode: "hybrid",
			Nodes: r.Intn(2) * 6, N: 1200 * (1 + r.Intn(2)), Density: densities[r.Intn(len(densities))],
			B: 120, PEs: r.Intn(12), BF: r.Intn(6) - 1, L: r.Intn(4) - 1,
		}
		level := func() int { return r.Intn(levels) }
		switch {
		case r.Intn(6) == 0:
			outcomes[i] = Outcome{Err: "infeasible", GFLOPS: 1e9, Slices: -1}
		case i > 0 && r.Intn(5) == 0:
			outcomes[i] = outcomes[r.Intn(i)]
		default:
			outcomes[i] = Outcome{OK: true, GFLOPS: 0.5 * float64(level()), Slices: 1000 * level(), BdGBps: 0.25 * float64(level())}
		}
	}
	return points, outcomes
}

// checkReduceMatchesReference requires markPareto and sensitivity to
// agree exactly with the quadratic scan and the fmt.Sprint-keyed
// tables: frontier indices (nil when empty), Pareto flags and rows.
func checkReduceMatchesReference(t *testing.T, points []Point, outcomes []Outcome) {
	t.Helper()
	got := append([]Outcome(nil), outcomes...)
	want := append([]Outcome(nil), outcomes...)
	if g, w := markPareto(got), referenceMarkPareto(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("frontier = %v, reference %v", g, w)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Pareto flags differ from the reference scan")
	}
	if g, w := sensitivity(points, got), referenceSensitivity(points, want); !reflect.DeepEqual(g, w) {
		t.Fatalf("sensitivity differs from the reference:\n got %+v\nwant %+v", g, w)
	}
}

func TestSensitivitySingleAxisGrid(t *testing.T) {
	// Only the PE axis varies: exactly one table, covering it.
	g := Grid{Apps: []string{"lu"}, PEs: []int{2, 4, 8}}
	res, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sensitivity) != 1 {
		t.Fatalf("got %d sensitivity tables, want 1 (only pes varies)", len(res.Sensitivity))
	}
	tab := res.Sensitivity[0]
	if tab.Param != "pes" {
		t.Fatalf("table param = %q, want pes", tab.Param)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(tab.Rows))
	}
	for i, want := range []string{"2", "4", "8"} {
		if tab.Rows[i].Value != want {
			t.Errorf("row %d value = %q, want %q (enumeration order)", i, tab.Rows[i].Value, want)
		}
		if tab.Rows[i].Count != 1 {
			t.Errorf("row %d count = %d, want 1", i, tab.Rows[i].Count)
		}
	}

	// A single-point grid varies no axis at all: no tables.
	g = Grid{Apps: []string{"lu"}}
	if res, err = Run(context.Background(), g, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(res.Sensitivity) != 0 {
		t.Fatalf("single-point grid produced %d sensitivity tables, want 0", len(res.Sensitivity))
	}
}

// frontierIndexSet collects the original grid Index of every frontier
// point, so full-grid and screened results compare on common ground.
func frontierIndexSet(res *Result) map[int]bool {
	set := make(map[int]bool, len(res.ParetoIndices))
	for _, i := range res.ParetoIndices {
		set[res.Points[i].Index] = true
	}
	return set
}

func TestScreenedFrontierMatchesFullSim(t *testing.T) {
	// Property: on a grid where the model's ranking error stays inside
	// the default margin, screened+refined sim must reproduce the full
	// sim sweep's Pareto frontier exactly.
	g := Grid{
		Apps: []string{"lu"},
		N:    []int{120}, B: []int{40},
		Modes:  []string{"hybrid", "processor-only"},
		PEs:    []int{2, 4, 6, 8},
		L:      []int{-1, 2, 4},
		Method: MethodSim,
	}
	full, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scr, err := RunScreened(context.Background(), g, ScreenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if scr.Screen == nil {
		t.Fatal("screened result has no ScreenSummary")
	}
	if scr.Screen.Points != len(full.Points) {
		t.Errorf("Screen.Points = %d, want %d", scr.Screen.Points, len(full.Points))
	}
	if scr.Screen.Candidates >= scr.Screen.Points {
		t.Errorf("screening kept all %d points — no pruning at all", scr.Screen.Points)
	}
	wantSet, gotSet := frontierIndexSet(full), frontierIndexSet(scr)
	if len(wantSet) == 0 {
		t.Fatal("full sweep has empty frontier; grid too degenerate for the property")
	}
	for idx := range wantSet {
		if !gotSet[idx] {
			t.Errorf("full-sim frontier point index=%d missing from screened frontier", idx)
		}
	}
	for idx := range gotSet {
		if !wantSet[idx] {
			t.Errorf("screened frontier has extra point index=%d not on full-sim frontier", idx)
		}
	}
	// Refined outcomes must match the full sweep's bit-for-bit: same
	// evaluator, same method, same point.
	for i, pt := range scr.Points {
		fo := full.Outcomes[pt.Index]
		so := scr.Outcomes[i]
		if fo.GFLOPS != so.GFLOPS || fo.OK != so.OK {
			t.Errorf("point index=%d: refined GFLOPS=%v OK=%v, full GFLOPS=%v OK=%v",
				pt.Index, so.GFLOPS, so.OK, fo.GFLOPS, fo.OK)
		}
	}
}

func TestRunScreenedSummaryArithmetic(t *testing.T) {
	res, err := RunScreened(context.Background(), bigGrid(), ScreenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc := res.Screen
	if sc == nil {
		t.Fatal("no ScreenSummary")
	}
	if sc.Margin != DefaultRefineMargin {
		t.Errorf("Margin = %v, want default %v", sc.Margin, DefaultRefineMargin)
	}
	if sc.Points != 126 {
		t.Errorf("Screen.Points = %d, want 126", sc.Points)
	}
	if got := sc.Frontier + sc.Band + sc.Neighbors; got != sc.Candidates {
		t.Errorf("Frontier+Band+Neighbors = %d, want Candidates = %d", got, sc.Candidates)
	}
	if sc.Candidates != len(res.Points) {
		t.Errorf("Candidates = %d, but result has %d points", sc.Candidates, len(res.Points))
	}
	if res.Stats.Points != sc.Candidates {
		t.Errorf("Stats.Points = %d, want refined subset size %d", res.Stats.Points, sc.Candidates)
	}
	// Candidates stay in ascending enumeration order with their
	// original grid Index.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Index <= res.Points[i-1].Index {
			t.Fatalf("candidate order not ascending: Index %d after %d", res.Points[i].Index, res.Points[i-1].Index)
		}
	}
}

func TestRunScreenedRejectsNegativeMargin(t *testing.T) {
	_, err := RunScreened(context.Background(), bigGrid(), ScreenOptions{RefineMargin: -0.5})
	if err == nil {
		t.Fatal("negative RefineMargin accepted")
	}
}

func TestRunScreenedDeterministicAcrossWorkers(t *testing.T) {
	runScreenedJSON := func(workers int) []byte {
		res, err := RunScreened(context.Background(), bigGrid(), ScreenOptions{Options: Options{Workers: workers}})
		if err != nil {
			t.Fatalf("RunScreened(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(runScreenedJSON(1), runScreenedJSON(8)) {
		t.Fatal("screened JSON output differs between worker counts")
	}
}

func TestRunScreenedProgressPhases(t *testing.T) {
	var phases []string
	var totals []int
	_, err := RunScreened(context.Background(), bigGrid(), ScreenOptions{Options: Options{
		Workers: 2,
		OnProgress: func(p Progress) {
			if n := len(phases); n == 0 || phases[n-1] != p.Phase {
				phases = append(phases, p.Phase)
				totals = append(totals, p.Total)
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 || phases[0] != "screen" || phases[1] != "refine" {
		t.Fatalf("observed phases %v, want [screen refine]", phases)
	}
	if totals[0] != 126 {
		t.Errorf("screen phase Total = %d, want 126", totals[0])
	}
	if totals[1] >= totals[0] {
		t.Errorf("refine phase Total = %d, want < screen total %d", totals[1], totals[0])
	}
}

func TestResolveMemoization(t *testing.T) {
	// Every bigGrid point has PEs=0, so each evaluation resolves the
	// device's largest matmul array; the memo must solve it once.
	res, err := Run(context.Background(), bigGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.ResolveSolves != 1 {
		t.Errorf("ResolveSolves = %d, want 1", s.ResolveSolves)
	}
	if s.ResolveLookups < s.Points {
		t.Errorf("ResolveLookups = %d, want >= %d (one per point)", s.ResolveLookups, s.Points)
	}
}
