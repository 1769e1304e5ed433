package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// bigGrid is a >=100-point model-method LU grid used by the
// determinism tests: 21 bf values x 6 pipeline depths = 126 points.
func bigGrid() Grid {
	bf := []int{-1}
	for v := 0; v <= 3000; v += 150 {
		bf = append(bf, v)
	}
	return Grid{
		Apps: []string{"lu"},
		BF:   bf[:21],
		L:    []int{-1, 1, 2, 3, 4, 6},
	}
}

func runJSON(t *testing.T, g Grid, workers int) []byte {
	t.Helper()
	res, err := Run(context.Background(), g, Options{Workers: workers})
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestDeterministicAcrossWorkerCounts runs each grid with 1 and 8
// workers and the default pool, and requires byte-identical JSON. Besides bigGrid, the cases
// are the grids `cmd/sweep` builds from these flags:
//
//   - unread-axes: -apps lu,fw,mm,spmv,chol,qr -machines xd1,xt3
//     -density 0,0.05 -b 0,256 -bf -1,512 -l -1,2, a mixed-app grid
//     sweeping every axis some app never reads, so most points share a
//     representative's evaluation (DESIGN.md §13) and the output must
//     not depend on which worker got which one;
//   - spmv-density: -apps spmv -n 512 -density 0,0.02,0.1 -pes 4,7
//     -method sim, the grid whose regime flip TestDensityRegimeFlipSim
//     asserts.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name   string
		g      Grid
		points int
	}{
		{"lu-bf-l", bigGrid(), 126},
		{"unread-axes", Grid{
			Apps:     []string{"lu", "fw", "mm", "spmv", "chol", "qr"},
			Machines: []string{"xd1", "xt3"},
			Modes:    []string{"hybrid"},
			Nodes:    []int{0},
			N:        []int{0},
			Density:  []float64{0, 0.05},
			B:        []int{0, 256},
			PEs:      []int{0},
			BF:       []int{-1, 512},
			L:        []int{-1, 2},
			Method:   MethodModel,
		}, 192},
		{"spmv-density", Grid{
			Apps:     []string{"spmv"},
			Machines: []string{"xd1"},
			Modes:    []string{"hybrid"},
			Nodes:    []int{0},
			N:        []int{512},
			Density:  []float64{0, 0.02, 0.1},
			B:        []int{0},
			PEs:      []int{4, 7},
			BF:       []int{-1},
			L:        []int{-1},
			Method:   MethodSim,
		}, 6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if n := c.g.NumPoints(); n != c.points {
				t.Fatalf("grid has %d points, want %d", n, c.points)
			}
			one := runJSON(t, c.g, 1)
			for _, workers := range []int{8, 0} { // 0 = the default pool
				if got := runJSON(t, c.g, workers); !bytes.Equal(one, got) {
					t.Fatalf("JSON output differs between -workers=1 (%d bytes) and -workers=%d (%d bytes)",
						len(one), workers, len(got))
				}
			}
		})
	}
}

func TestDeterministicCSV(t *testing.T) {
	g := bigGrid()
	runCSV := func(workers int) []byte {
		res, err := Run(context.Background(), g, Options{Workers: workers})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(runCSV(1), runCSV(8)) {
		t.Fatal("CSV output differs between worker counts")
	}
}

func TestCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err := Run(ctx, bigGrid(), Options{
		Workers: 4,
		OnResult: func(Point, Outcome) {
			seen++
			if seen == 5 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("Run after cancel: err=%v, want context.Canceled", err)
	}
	// Workers exit once they observe cancellation; poll until the
	// goroutine count settles back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak after cancellation: %d before, %d after", before, runtime.NumGoroutine())
}

func TestMemoizationSharesSubProblems(t *testing.T) {
	res, err := Run(context.Background(), bigGrid(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	// All 126 points share one machine/device/PE combination: the
	// placement must be solved exactly once, and looked up once per
	// feasible point.
	if s.PlaceSolves != 1 {
		t.Errorf("PlaceSolves = %d, want 1", s.PlaceSolves)
	}
	if s.PlaceLookups != s.Points {
		t.Errorf("PlaceLookups = %d, want %d (one per point)", s.PlaceLookups, s.Points)
	}
	// The bf=-1 column all solves the same Equation 4 instance; the
	// l=-1 row solves Equation 5 once per distinct bf.
	if s.PartitionSolves >= s.PartitionLookups {
		t.Errorf("no partition memo hits: solves=%d lookups=%d", s.PartitionSolves, s.PartitionLookups)
	}
}

func TestParetoFrontier(t *testing.T) {
	// Sweep the PE axis: smaller arrays cost fewer slices but deliver
	// less throughput, so several points should be mutually
	// non-dominated, and every dominated point must be excluded.
	g := Grid{Apps: []string{"lu"}, PEs: []int{2, 4, 6, 8, 10, 12}}
	res, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ParetoIndices) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	for _, i := range res.ParetoIndices {
		if !res.Outcomes[i].OK {
			t.Errorf("infeasible point %d on frontier", i)
		}
		if !res.Outcomes[i].Pareto {
			t.Errorf("frontier point %d not marked Pareto", i)
		}
		for j := range res.Outcomes {
			if j != i && res.Outcomes[j].OK && dominates(res.Outcomes[j].objectives(), res.Outcomes[i].objectives()) {
				t.Errorf("frontier point %d is dominated by %d", i, j)
			}
		}
	}
	// k=10 does not fit the XC2VP50: 29000 slices > 23616.
	for i, pt := range res.Points {
		if pt.PEs >= 10 && res.Outcomes[i].OK {
			t.Errorf("PEs=%d unexpectedly feasible on xd1", pt.PEs)
		}
		if pt.PEs == 8 && !res.Outcomes[i].OK {
			t.Errorf("PEs=8 unexpectedly infeasible: %s", res.Outcomes[i].Err)
		}
	}
}

func TestSensitivityTables(t *testing.T) {
	res, err := Run(context.Background(), bigGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"bf": 21, "l": 6}
	got := map[string]int{}
	for _, tab := range res.Sensitivity {
		got[tab.Param] = len(tab.Rows)
	}
	for param, rows := range want {
		if got[param] != rows {
			t.Errorf("sensitivity[%s]: %d rows, want %d", param, got[param], rows)
		}
	}
	if len(res.Sensitivity) != len(want) {
		t.Errorf("got %d sensitivity tables (%v), want %d", len(res.Sensitivity), got, len(want))
	}
}

func TestSimMethodSmallLU(t *testing.T) {
	g := Grid{
		Apps: []string{"lu"},
		N:    []int{120}, B: []int{40},
		Modes:  []string{"hybrid", "processor-only"},
		Method: MethodSim,
	}
	res, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if !o.OK {
			t.Fatalf("point %d infeasible: %s", i, o.Err)
		}
		if o.GFLOPS <= 0 || o.Seconds <= 0 {
			t.Errorf("point %d: GFLOPS=%v Seconds=%v", i, o.GFLOPS, o.Seconds)
		}
		if o.Binding == "" {
			t.Errorf("point %d: no measured binding", i)
		}
	}
	// The hybrid point uses the FPGA, so some stripe rows land on it.
	if res.Outcomes[0].BF <= 0 {
		t.Errorf("hybrid BF = %d, want > 0", res.Outcomes[0].BF)
	}
	if res.Outcomes[1].BF != 0 {
		t.Errorf("processor-only BF = %d, want 0", res.Outcomes[1].BF)
	}
}

func TestSimMethodSmallFWAndMM(t *testing.T) {
	g := Grid{
		Apps: []string{"fw", "mm"},
		N:    []int{96}, B: []int{16},
		Method: MethodSim,
	}
	res, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if !o.OK {
			t.Fatalf("point %d (%s) infeasible: %s", i, res.Points[i].App, o.Err)
		}
		if o.GFLOPS <= 0 {
			t.Errorf("point %d (%s): GFLOPS=%v", i, res.Points[i].App, o.GFLOPS)
		}
	}
}

// TestConcurrentSimRunsMatchSerial runs sim-method sweeps at once,
// each on its own evaluator but both drawing span recorders from the
// one process-wide pool, and requires each to encode byte for byte as
// it does when run alone.
func TestConcurrentSimRunsMatchSerial(t *testing.T) {
	grids := []Grid{
		{Apps: []string{"lu"}, N: []int{120}, B: []int{40}, PEs: []int{2, 4}, Method: MethodSim},
		{Apps: []string{"fw", "mm"}, N: []int{96}, B: []int{16}, PEs: []int{2, 4}, Method: MethodSim},
		{Apps: []string{"spmv"}, N: []int{256}, Density: []float64{0, 0.02, 0.1},
			Modes: []string{"hybrid", "fpga-only"}, Method: MethodSim},
	}
	encode := func(g Grid) ([]byte, error) {
		res, err := Run(context.Background(), g, Options{Workers: 2, Evaluator: NewEvaluator(0)})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteJSON(&buf)
		return buf.Bytes(), err
	}
	serial := make([][]byte, len(grids))
	for i, g := range grids {
		b, err := encode(g)
		if err != nil {
			t.Fatalf("serial grid %d: %v", i, err)
		}
		serial[i] = b
	}
	for round := 0; round < 3; round++ {
		concurrent := make([][]byte, len(grids))
		var wg sync.WaitGroup
		for i, g := range grids {
			wg.Add(1)
			go func(i int, g Grid) {
				defer wg.Done()
				b, err := encode(g)
				if err != nil {
					t.Errorf("concurrent grid %d: %v", i, err)
				}
				concurrent[i] = b
			}(i, g)
		}
		wg.Wait()
		for i := range grids {
			if !bytes.Equal(concurrent[i], serial[i]) {
				t.Fatalf("round %d: grid %d encodes differently when run beside another sweep", round, i)
			}
		}
	}
}

func TestInfeasiblePointsReported(t *testing.T) {
	// b=3000 is not a multiple of p-1=7 on 8 nodes.
	g := Grid{Apps: []string{"lu"}, Nodes: []int{8}}
	res, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].OK {
		t.Fatal("expected infeasible outcome")
	}
	if res.Stats.Errors != 1 {
		t.Errorf("Stats.Errors = %d, want 1", res.Stats.Errors)
	}
	if res.Outcomes[0].Err == "" {
		t.Error("infeasible outcome missing Err")
	}
}

func TestGridValidation(t *testing.T) {
	cases := []struct {
		g    Grid
		want string
	}{
		{Grid{Apps: []string{"quux"}}, "unknown app"},
		{Grid{Apps: []string{"cg"}}, `app "cg" has no closed-form model (want one of lu, fw, mm, spmv, chol, qr)`},
		{Grid{Machines: []string{"bluegene"}}, "unknown preset"},
		{Grid{Modes: []string{"quantum"}}, "unknown mode"},
		{Grid{Method: "guess"}, "unknown method"},
		{Grid{Density: []float64{math.NaN()}}, "density NaN out of [0,1]"},
		{Grid{Density: []float64{0.1, math.Inf(1)}}, "density +Inf out of [0,1]"},
		{Grid{Density: []float64{math.Inf(-1)}}, "density -Inf out of [0,1]"},
		{overflowGrid(), "more than 250000 points"},
	}
	for i, c := range cases {
		if err := c.g.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: Validate = %v, want %q", i, err, c.want)
		}
	}
	if n := overflowGrid().NumPoints(); n != MaxPoints+1 {
		t.Errorf("2^64-point grid: NumPoints = %d, want the saturated %d", n, MaxPoints+1)
	}
	if err := (Grid{}).Validate(); err != nil {
		t.Errorf("zero grid invalid: %v", err)
	}
}

// overflowGrid has 256 values on each of eight axes: 2^64 points, a
// product that wraps int64 to 0 unless NumPoints saturates.
func overflowGrid() Grid {
	var g Grid
	for i := 0; i < 256; i++ {
		g.Apps = append(g.Apps, "lu")
		g.Nodes = append(g.Nodes, i)
		g.N = append(g.N, i)
		g.B = append(g.B, i)
		g.PEs = append(g.PEs, i)
		g.BF = append(g.BF, i)
		g.L = append(g.L, i)
		g.Density = append(g.Density, float64(i)/256)
	}
	return g
}

func TestReadGridRejectsUnknownFields(t *testing.T) {
	_, err := ReadGrid(strings.NewReader(`{"block_sizes": [100]}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	g, err := ReadGrid(strings.NewReader(`{"apps": ["mm"], "pes": [4, 8]}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPoints() != 2 {
		t.Errorf("NumPoints = %d, want 2", g.NumPoints())
	}
}

// FuzzReadGrid: the grid decoder must never panic; a rejected grid
// comes back as one of the package's own errors, and an accepted grid
// has an exact, bounded size that enumeration agrees with and survives
// an encode/decode round trip unchanged.
func FuzzReadGrid(f *testing.F) {
	overflow, err := json.Marshal(overflowGrid())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overflow)
	for _, seed := range []string{
		`{}`, `null`, `[]`, `{"apps": ["mm"], "pes": [4, 8]}`,
		`{"apps": ["lu", "fw", "mm", "spmv"], "machines": ["xd1", "xt3"], "density": [0, 0.05], "b": [0, 256], "bf": [-1, 512], "l": [-1, 2]}`,
		`{"density": [1e400]}`, `{"density": [-0]}`, `{"modes": ["fpga-only"], "method": "sim", "nodes": [-3]}`,
		`{"apps": ["qr"]}`, `{"block_sizes": [100]}`, `{"n": [1, 2] `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGrid(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "sweep: ") {
				t.Fatalf("rejection %q is not a sweep error", err)
			}
			return
		}
		n := g.NumPoints()
		if n < 1 || n > MaxPoints {
			t.Fatalf("accepted grid has NumPoints %d, want within [1, %d]", n, MaxPoints)
		}
		if n <= 4096 {
			if got := len(g.Points()); got != n {
				t.Fatalf("Points() enumerated %d points, NumPoints says %d", got, n)
			}
		}
		enc, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("encoding an accepted grid: %v", err)
		}
		again, err := ReadGrid(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-reading %s: %v", enc, err)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip unstable:\n%s\n%s", enc, enc2)
		}
	})
}

func TestPointsEnumerationOrder(t *testing.T) {
	g := Grid{Apps: []string{"lu", "mm"}, PEs: []int{4, 8}}
	pts := g.Points()
	if len(pts) != 4 {
		t.Fatalf("len(points) = %d, want 4", len(pts))
	}
	wantApps := []string{"lu", "lu", "mm", "mm"}
	wantPEs := []int{4, 8, 4, 8}
	for i, pt := range pts {
		if pt.Index != i || pt.App != wantApps[i] || pt.PEs != wantPEs[i] {
			t.Errorf("point %d = %+v, want app=%s pes=%d", i, pt, wantApps[i], wantPEs[i])
		}
	}
}

func TestPanickingPointRecordedInfeasible(t *testing.T) {
	// The worker pool's recover backstop: a panic while evaluating one
	// point becomes that point's infeasible outcome instead of killing
	// the process (and with it the whole sweep).
	out := safeEvaluate(func() Outcome { panic("bad cyclic geometry") })
	if out.OK {
		t.Fatal("panicking evaluation reported OK")
	}
	if !strings.Contains(out.Err, "panic: bad cyclic geometry") {
		t.Fatalf("err %q does not carry the panic reason", out.Err)
	}
	clean := safeEvaluate(func() Outcome { return Outcome{OK: true} })
	if !clean.OK || clean.Err != "" {
		t.Fatalf("clean evaluation altered: %+v", clean)
	}
}
