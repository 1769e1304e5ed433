package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"codesign/internal/cli"
)

func TestRunInlineAxesDeterministic(t *testing.T) {
	dir := t.TempDir()
	outJSON := func(workers int, name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		err := run(options{
			Apps: "lu", Machines: "xd1", Modes: "hybrid",
			Nodes: "0", N: "0", B: "0", PEs: "2,4,6,8", BF: "-1", L: "-1",
			Method: "model", Workers: workers, JSONOut: path, Quiet: true,
		}, &buf)
		if err != nil {
			t.Fatalf("run(workers=%d): %v", workers, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one := outJSON(1, "w1.json")
	eight := outJSON(8, "w8.json")
	if !bytes.Equal(one, eight) {
		t.Fatal("JSON differs between -workers=1 and -workers=8")
	}
	if !bytes.Contains(one, []byte(`"pareto"`)) {
		t.Error("JSON output missing pareto field")
	}
}

func TestRunGridFileAndCSV(t *testing.T) {
	dir := t.TempDir()
	grid := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(grid, []byte(`{"apps":["mm"],"pes":[4,8]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "out.csv")
	var buf bytes.Buffer
	if err := run(options{GridFile: grid, CSVOut: csv}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "index,app,machine") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	if !strings.Contains(buf.String(), "pareto frontier") {
		t.Errorf("summary report missing frontier section:\n%s", buf.String())
	}
}

func TestRunArchiveSpans(t *testing.T) {
	dir := t.TempDir()
	spansDir := filepath.Join(dir, "frontier")
	var buf bytes.Buffer
	err := run(options{
		Apps: "lu", Machines: "xd1", Modes: "hybrid",
		Nodes: "0", N: "120", B: "40", PEs: "0", BF: "-1", L: "-1",
		Method: "sim", ArchiveSpans: spansDir, Quiet: true,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(spansDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no frontier span files archived")
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "point-") || !strings.HasSuffix(e.Name(), ".spans") {
			t.Fatalf("unexpected archive file %q", e.Name())
		}
	}
}

func TestRunObsServesMetricsDuringSweep(t *testing.T) {
	var buf bytes.Buffer
	scrape := func(addr string) (string, error) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}
	stop := make(chan struct{})
	polled := make(chan int, 1)
	var body string
	err := run(options{
		Apps: "lu", Machines: "xd1", Modes: "hybrid",
		Nodes: "0", N: "0", B: "0", PEs: "2,4,6,8", BF: "-1", L: "-1",
		Method: "sim", Workers: 2, Quiet: true,
		Obs: "127.0.0.1:0",
		obsReady: func(addr string) {
			// The sweep waits for this callback, so the other endpoints
			// are probed on a server that is certainly up.
			for _, c := range []struct{ path, want string }{
				{"/healthz", "ok\n"},
				{"/statusz", `"pid"`},
				{"/debug/pprof/goroutine?debug=1", "goroutine profile"},
			} {
				resp, err := http.Get("http://" + addr + c.path)
				if err != nil {
					t.Errorf("GET %s: %v", c.path, err)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), c.want) {
					t.Errorf("GET %s: status %d, body missing %q:\n%s", c.path, resp.StatusCode, c.want, body)
				}
			}
			// Poll /metrics while the sweep runs, at least once.
			go func() {
				n := 0
				for {
					if _, err := scrape(addr); err == nil {
						n++
					}
					select {
					case <-stop:
						polled <- n
						return
					case <-time.After(2 * time.Millisecond):
					}
				}
			}()
		},
		// The poller stops and the final scrape runs after the sweep,
		// before the server closes, so it reflects every completed
		// point.
		obsDone: func(addr string) {
			close(stop)
			if n := <-polled; n == 0 {
				t.Error("no /metrics scrape succeeded while the server was up")
			}
			var err error
			if body, err = scrape(addr); err != nil {
				t.Errorf("final /metrics scrape: %v", err)
			}
		},
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sweep_points_total 4",
		"sweep_points_done 4",
		"sweep_place_hit_rate",
		"sweep_partition_hit_rate",
		"sweep_point_seconds_bucket",
		`sweep_worker_busy_seconds{worker="0"}`,
		"sim_handoffs_total",
		"sim_self_resumes_total",
		"sim_events_popped_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// A sim-method sweep runs real engines, so the process-wide counter
	// sink must have seen events by the last scrape.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "sim_events_popped_total ") {
			if strings.TrimPrefix(line, "sim_events_popped_total ") == "0" {
				t.Errorf("sim counters never incremented: %s", line)
			}
		}
	}
}

func TestRunProgressTicker(t *testing.T) {
	var stderr bytes.Buffer
	log := cli.NewLogger("sweep", &stderr)
	err := run(options{
		Apps: "lu", Machines: "xd1", Modes: "hybrid",
		Nodes: "0", N: "0", B: "0", PEs: "2,4,6,8", BF: "-1", L: "-1",
		Method: "model", Workers: 2, Quiet: false, Progress: true, Log: log,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The ticker always reports the final point even on a fast sweep.
	if !strings.Contains(stderr.String(), "sweep: 4/4 (100.0%)") {
		t.Errorf("no final progress line in stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "eta=0s") {
		t.Errorf("final progress line missing settled ETA:\n%s", stderr.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(options{Apps: "lu", PEs: "four"}, &bytes.Buffer{}); err == nil {
		t.Error("bad -pes accepted")
	}
	if err := run(options{Apps: "cg", PEs: "0", Method: "model"}, &bytes.Buffer{}); err == nil {
		t.Error("app without a model half accepted")
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	err := run(options{Apps: "lu", PEs: "2", Method: "model", Workers: -1, Quiet: true}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("negative -workers: err=%v, want a -workers error", err)
	}
}

func TestRunRejectsMarginWithoutScreen(t *testing.T) {
	err := run(options{Apps: "lu", PEs: "2", Method: "model", RefineMargin: 0.2, Quiet: true}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-screen") {
		t.Fatalf("-refine-margin without -screen: err=%v, want a -screen error", err)
	}
}

func TestRunScreenedSummaryOutput(t *testing.T) {
	var stdout bytes.Buffer
	err := run(options{
		Apps: "lu", Machines: "xd1", Modes: "hybrid",
		Nodes: "0", N: "0", B: "0", PEs: "2,4,6,8,10,12", BF: "-1", L: "-1,2,4",
		Method: "model", Screen: true,
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "screened 18 points") {
		t.Errorf("summary missing screening line:\n%s", out)
	}
	if !strings.Contains(out, "candidates") {
		t.Errorf("summary missing candidate count:\n%s", out)
	}
}

func TestRunSummaryInfeasibleByAxis(t *testing.T) {
	var stdout bytes.Buffer
	err := run(options{
		Apps: "lu", Machines: "xd1", Modes: "hybrid",
		Nodes: "0", N: "0", B: "0", PEs: "2,4,10,12", BF: "-1", L: "-1",
		Method: "model",
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	// PEs 10 and 12 exceed the XC2VP50: the per-axis infeasibility
	// breakdown must surface them in text, not only in JSON.
	if !strings.Contains(stdout.String(), "infeasible by pes: 10=1 12=1") {
		t.Errorf("summary missing per-axis infeasibility:\n%s", stdout.String())
	}
}

func TestScreenedMatchesFullFrontierJSON(t *testing.T) {
	dir := t.TempDir()
	base := options{
		Apps: "lu", Machines: "xd1", Modes: "hybrid",
		Nodes: "0", N: "120", B: "40", PEs: "2,4,6,8", BF: "-1", L: "-1,2,4",
		Method: "sim", Quiet: true,
	}
	full := base
	full.JSONOut = filepath.Join(dir, "full.json")
	if err := run(full, io.Discard); err != nil {
		t.Fatal(err)
	}
	scr := base
	scr.Screen = true
	scr.JSONOut = filepath.Join(dir, "screened.json")
	if err := run(scr, io.Discard); err != nil {
		t.Fatal(err)
	}
	frontier := func(path string) map[int]bool {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Results []struct {
				Point struct {
					Index int `json:"index"`
				} `json:"point"`
				Outcome struct {
					Pareto bool `json:"pareto"`
				} `json:"outcome"`
			} `json:"results"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		set := map[int]bool{}
		for _, r := range res.Results {
			if r.Outcome.Pareto {
				set[r.Point.Index] = true
			}
		}
		return set
	}
	want, got := frontier(full.JSONOut), frontier(scr.JSONOut)
	if len(want) == 0 {
		t.Fatal("full sweep frontier empty")
	}
	if len(want) != len(got) {
		t.Fatalf("frontier sizes differ: full=%v screened=%v", want, got)
	}
	for idx := range want {
		if !got[idx] {
			t.Errorf("frontier index %d missing from screened output", idx)
		}
	}
}

// TestScreenPrunesScaleGrid screens the 26,488-point mm grid (11 sizes
// × 4 PE counts × every bf in [-1, 600]) with the sim method, and
// requires the screen to keep its promise at scale: the whole grid is
// model-ranked, fewer than half of its points survive to simulation,
// and exactly the survivors are reported.
func TestScreenPrunesScaleGrid(t *testing.T) {
	bf := make([]string, 0, 602)
	for v := -1; v <= 600; v++ {
		bf = append(bf, strconv.Itoa(v))
	}
	path := filepath.Join(t.TempDir(), "screen.json")
	err := run(options{
		Apps: "mm", Machines: "xd1", Modes: "hybrid", Nodes: "0", Density: "0", B: "0", L: "-1",
		N:   "480,540,600,660,720,780,840,900,960,1020,1080",
		PEs: "2,4,6,8", BF: strings.Join(bf, ","),
		Method: "sim", Screen: true, JSONOut: path, Quiet: true,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Screen struct {
			Points     int `json:"points"`
			Candidates int `json:"candidates"`
		} `json:"screen"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	s := res.Screen
	if s.Points < 20000 {
		t.Errorf("screened %d points, want >= 20000", s.Points)
	}
	if s.Candidates <= 0 || 2*s.Candidates >= s.Points {
		t.Errorf("%d candidates of %d points, want 0 < 2·candidates < points", s.Candidates, s.Points)
	}
	if s.Candidates != len(res.Results) {
		t.Errorf("%d candidates but %d results", s.Candidates, len(res.Results))
	}
}
