package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"codesign/internal/trace"
)

func TestArchiveFrontierSpans(t *testing.T) {
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
	if len(res.ParetoIndices) == 0 {
		t.Fatal("no frontier to archive")
	}

	dir := filepath.Join(t.TempDir(), "spans")
	paths, err := ArchiveFrontierSpans(res, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(res.ParetoIndices) {
		t.Fatalf("archived %d files, want %d frontier points", len(paths), len(res.ParetoIndices))
	}
	for i, idx := range res.ParetoIndices {
		want := filepath.Join(dir, fmt.Sprintf("point-%04d.spans", res.Points[idx].Index))
		if paths[i] != want {
			t.Fatalf("path[%d] = %s, want %s", i, paths[i], want)
		}
		meta, spans, err := trace.ReadSpansFile(paths[i])
		if err != nil {
			t.Fatalf("%s unreadable: %v", paths[i], err)
		}
		if meta.App != "lu" || meta.Machine != "xd1" || meta.Label == "" {
			t.Fatalf("%s meta = %+v", paths[i], meta)
		}
		if len(spans) == 0 {
			t.Fatalf("%s has no spans", paths[i])
		}
		// The re-simulation is deterministic, so the archived makespan
		// matches the sweep's measured latency exactly.
		if meta.Makespan != res.Outcomes[idx].Seconds {
			t.Fatalf("%s makespan %g != sweep seconds %g",
				paths[i], meta.Makespan, res.Outcomes[idx].Seconds)
		}
	}
}

// TestArchiveFrontierSpansEveryApp re-simulates each app's frontier:
// every archived trace must come from the point's own app, so its
// makespan equals the swept latency exactly.
func TestArchiveFrontierSpansEveryApp(t *testing.T) {
	grids := []Grid{
		{Apps: []string{"lu"}, N: []int{120}, B: []int{40}},
		{Apps: []string{"fw"}, N: []int{96}, B: []int{16}},
		{Apps: []string{"mm"}, N: []int{96}},
		{Apps: []string{"spmv"}, N: []int{512}, Density: []float64{0, 0.05}, PEs: []int{4}},
	}
	for _, g := range grids {
		g.Modes = []string{"hybrid", "processor-only"}
		g.Method = MethodSim
		res, err := Run(context.Background(), g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		app := g.Apps[0]
		paths, err := ArchiveFrontierSpans(res, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if len(paths) == 0 || len(paths) != len(res.ParetoIndices) {
			t.Fatalf("%s: archived %d files for %d frontier points", app, len(paths), len(res.ParetoIndices))
		}
		for i, idx := range res.ParetoIndices {
			meta, _, err := trace.ReadSpansFile(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			if meta.App != app || meta.Makespan != res.Outcomes[idx].Seconds {
				t.Errorf("%s: app %q makespan %g, want %q and the swept %g",
					paths[i], meta.App, meta.Makespan, app, res.Outcomes[idx].Seconds)
			}
		}
	}
	ev := &pointEval{evaluator: newEvaluator(0), tally: new(Stats)}
	if _, _, err := ev.record(Point{App: "qr", Machine: "xd1", Mode: "hybrid", BF: -1, L: -1}); err == nil {
		t.Error("record simulated an unknown app")
	}
}

func TestArchiveFrontierSpansModelMethod(t *testing.T) {
	// A model-method sweep still archives measured traces: the archive
	// re-simulates regardless of the sweep's evaluation method.
	g := Grid{Apps: []string{"lu"}, N: []int{120}, B: []int{40}}
	res, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := ArchiveFrontierSpans(res, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(res.ParetoIndices) {
		t.Fatalf("archived %d files, want %d", len(paths), len(res.ParetoIndices))
	}
	for _, p := range paths {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty (err=%v)", p, err)
		}
	}
}

func TestArchiveFrontierSpansEmptyFrontier(t *testing.T) {
	res := &Result{}
	dir := filepath.Join(t.TempDir(), "never-created")
	paths, err := ArchiveFrontierSpans(res, dir)
	if err != nil || len(paths) != 0 {
		t.Fatalf("empty frontier: paths=%v err=%v", paths, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("directory created for an empty frontier")
	}
}
