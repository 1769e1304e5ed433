package sweep

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"codesign/internal/core"
)

// unreadSetters assign a new value to each axis an app may leave
// unread, one per core.Axis bit.
var unreadSetters = []struct {
	bit core.Axis
	set func(*Point, *rand.Rand)
}{
	{core.AxisB, func(p *Point, r *rand.Rand) { p.B = []int{0, 16, 40, 120, 256, 3000}[r.Intn(6)] }},
	{core.AxisBF, func(p *Point, r *rand.Rand) { p.BF = r.Intn(4000) - 1 }},
	{core.AxisL, func(p *Point, r *rand.Rand) { p.L = r.Intn(12) - 1 }},
	{core.AxisDensity, func(p *Point, r *rand.Rand) { p.Density = []float64{0, 1e-4, 0.05, 0.5, 1}[r.Intn(5)] }},
}

// randomPoint draws a model-method point from a space wide enough to
// reach every feasibility branch: defaults, infeasible divisibility,
// solved and fixed partitions, every mode and machine.
func randomPoint(r *rand.Rand, app string) Point {
	pick := func(xs ...int) int { return xs[r.Intn(len(xs))] }
	return Point{
		App:     app,
		Machine: []string{"xd1", "xt3", "src6", "rasc"}[r.Intn(4)],
		Mode:    knownModes[r.Intn(len(knownModes))],
		Nodes:   pick(0, 0, 2, 3, 6),
		N:       pick(0, 0, 96, 480, 1200, 6144, 18432),
		Density: []float64{0, 0.01, 0.05, 1}[r.Intn(4)],
		B:       pick(0, 0, 16, 40, 120, 256),
		PEs:     pick(0, 0, 1, 2, 4, 8),
		BF:      pick(-1, -1, 0, 48, 512, 3000),
		L:       pick(-1, -1, 0, 1, 2, 6),
	}
}

// checkUnreadAxes requires every variation of pt along its app's
// unread axes to evaluate, on a fresh evaluator, to pt's own Outcome.
func checkUnreadAxes(t *testing.T, r *rand.Rand, pt Point, method string) {
	t.Helper()
	want := fmt.Sprintf("%+v", NewEvaluator(0).Evaluate(pt, method))
	app, err := lookup(pt.App)
	if err != nil {
		t.Fatal(err)
	}
	unread := app.Unread
	for _, ax := range unreadSetters {
		if unread&ax.bit == 0 {
			continue
		}
		q := pt
		ax.set(&q, r)
		if got := fmt.Sprintf("%+v", NewEvaluator(0).Evaluate(q, method)); got != want {
			t.Fatalf("%s: axis %d is marked unread, but %+v -> %s\nwhile %+v -> %s", pt.App, ax.bit, q, got, pt, want)
		}
	}
}

func TestUnreadAxesLeaveOutcomeUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, app := range Apps() {
		for i := 0; i < 400; i++ {
			checkUnreadAxes(t, r, randomPoint(r, app), MethodModel)
		}
	}
	// Reduced-size sim points: one feasible hybrid point per app.
	sims := []Point{
		{App: "lu", N: 120, B: 40},
		{App: "fw", N: 96, B: 16},
		{App: "mm", N: 96},
		{App: "spmv", N: 512, Density: 0.05, PEs: 4},
		{App: "chol", N: 120, B: 40},
		{App: "qr", N: 120, B: 40},
	}
	for _, pt := range sims {
		pt.Machine, pt.Mode, pt.BF, pt.L = "xd1", "hybrid", -1, -1
		for i := 0; i < 2; i++ {
			checkUnreadAxes(t, r, pt, MethodSim)
		}
	}
}

// unreadGrid sweeps every axis some app leaves unread, across all four
// apps, so most of its points are duplicates of another.
func unreadGrid() Grid {
	return Grid{
		Apps:     []string{"lu", "fw", "mm", "spmv"},
		Machines: []string{"xd1", "xt3"},
		Modes:    []string{"hybrid", "fpga-only"},
		Density:  []float64{0, 0.05},
		B:        []int{0, 256},
		PEs:      []int{0, 4},
		BF:       []int{-1, 512},
		L:        []int{-1, 2},
	}
}

func TestRunMatchesEveryPointReference(t *testing.T) {
	g := unreadGrid()
	norm, err := g.normalized()
	if err != nil {
		t.Fatal(err)
	}
	points := norm.Points()
	if reps, _ := groupEffective(points); len(reps)*2 > len(points) {
		t.Fatalf("grid has %d effective points of %d, want mostly duplicates", len(reps), len(points))
	}
	want := encode(t, referenceRun(norm, points))
	for _, workers := range []int{1, 4} {
		res, err := Run(context.Background(), g, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := encode(t, res); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: Run output differs from the every-point reference", workers)
		}
	}
}

func TestRunScreenedMatchesEveryPointReference(t *testing.T) {
	g := unreadGrid()
	want := encode(t, referenceRunScreened(t, g, DefaultRefineMargin))
	for _, workers := range []int{1, 4} {
		res, err := RunScreened(context.Background(), g, ScreenOptions{Options: Options{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if got := encode(t, res); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: RunScreened output differs from the every-point reference", workers)
		}
	}
}

// TestDuplicatesNotifyOncePerPoint: every point, duplicate or not,
// reaches OnResult and OnProgress exactly once; duplicates report zero
// evaluation time, and the final snapshot's memo traffic is the run's.
func TestDuplicatesNotifyOncePerPoint(t *testing.T) {
	g := unreadGrid()
	total := g.NumPoints()
	seen := make(map[int]int)
	var last Progress
	zero := 0
	res, err := Run(context.Background(), g, Options{
		Workers:  3,
		OnResult: func(p Point, _ Outcome) { seen[p.Index]++ },
		OnProgress: func(p Progress) {
			last = p
			if p.PointSeconds == 0 {
				zero++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Fatalf("OnResult saw %d distinct points, want %d", len(seen), total)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("point %d reported %d times", i, n)
		}
	}
	if last.Done != total || last.Total != total || last.ETA != 0 {
		t.Fatalf("final snapshot Done=%d Total=%d ETA=%v, want %d/%d/0", last.Done, last.Total, last.ETA, total, total)
	}
	reps, _ := groupEffective(res.Points)
	if dups := total - len(reps); zero < dups {
		t.Errorf("%d snapshots had zero PointSeconds, want at least the %d duplicates", zero, dups)
	}
	want := res.Stats
	want.Points, want.Errors = 0, 0
	if last.Stats != want {
		t.Errorf("final snapshot stats %+v, want the run's %+v", last.Stats, want)
	}
}

func encode(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSimHonorsFixedSplits pins the MethodSim path's wiring: a point's
// fixed bf and l (fw's l1) must reach the simulation, which reports the
// split it ran.
func TestSimHonorsFixedSplits(t *testing.T) {
	ev := NewEvaluator(0)
	for _, c := range []struct {
		pt        Point
		bf, l, l1 int
	}{
		{pt: Point{App: "lu", N: 120, B: 40, BF: 8, L: 2}, bf: 8, l: 2},
		{pt: Point{App: "fw", N: 192, B: 16, BF: -1, L: 0}},
		{pt: Point{App: "fw", N: 192, B: 16, BF: -1, L: 1}, l1: 1},
		{pt: Point{App: "fw", N: 192, B: 16, BF: -1, L: 2}, l1: 2},
		{pt: Point{App: "mm", N: 96, BF: 8, L: -1}, bf: 8},
		{pt: Point{App: "spmv", N: 512, PEs: 4, BF: 8, L: -1}, bf: 8},
	} {
		c.pt.Machine, c.pt.Mode = "xd1", "hybrid"
		out := ev.Evaluate(c.pt, MethodSim)
		if !out.OK || out.BF != c.bf || out.L != c.l || out.L1 != c.l1 {
			t.Errorf("%+v: got ok=%v bf=%d l=%d l1=%d (%s), want bf=%d l=%d l1=%d",
				c.pt, out.OK, out.BF, out.L, out.L1, out.Err, c.bf, c.l, c.l1)
		}
	}
}
