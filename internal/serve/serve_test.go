package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codesign/internal/obs"
	"codesign/internal/sweep"
)

// testServer wires a Server to an httptest listener.
type testServer struct {
	*Server
	ts  *httptest.Server
	reg *obs.Registry
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	reg := obs.NewRegistry()
	srv := New(cfg, reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &testServer{Server: srv, ts: ts, reg: reg}
}

// post sends a JSON body and returns the status and response bytes.
func (s *testServer) post(t *testing.T, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func (s *testServer) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(s.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func decodeSolve(t *testing.T, b []byte) SolveResponse {
	t.Helper()
	var r SolveResponse
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("decode solve response: %v\n%s", err, b)
	}
	return r
}

func decodeErr(t *testing.T, b []byte) *Error {
	t.Helper()
	var r ErrorResponse
	if err := json.Unmarshal(b, &r); err != nil || r.Error == nil {
		t.Fatalf("decode error envelope: %v\n%s", err, b)
	}
	return r.Error
}

func TestSolveComputedThenCached(t *testing.T) {
	s := newTestServer(t, Config{})
	req := SolveRequest{App: "lu", PEs: 4}

	code, body := s.post(t, "/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("first solve: %d\n%s", code, body)
	}
	first := decodeSolve(t, body)
	if first.Source != "computed" {
		t.Fatalf("first source = %q, want computed", first.Source)
	}
	if !first.Outcome.OK || first.Outcome.GFLOPS <= 0 {
		t.Fatalf("outcome = %+v, want feasible with positive GFLOPS", first.Outcome)
	}
	if first.Point.BF != -1 || first.Point.L != -1 {
		t.Fatalf("echoed point %+v should preserve -1 sentinels", first.Point)
	}

	code, body = s.post(t, "/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("second solve: %d", code)
	}
	second := decodeSolve(t, body)
	if second.Source != "cache" {
		t.Fatalf("second source = %q, want cache", second.Source)
	}
	if second.Outcome != first.Outcome {
		t.Fatalf("cached outcome differs:\n%+v\n%+v", second.Outcome, first.Outcome)
	}
	if st := s.svc.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestSolveEquivalentSpellingsShareKey(t *testing.T) {
	s := newTestServer(t, Config{})
	minusOne := -1
	// Defaults spelled three ways: absent, explicit zeros, explicit -1
	// sentinels.
	reqs := []SolveRequest{
		{},
		{App: "lu", Machine: "xd1", Mode: "hybrid", Method: "model"},
		{App: "lu", BF: &minusOne, L: &minusOne},
	}
	for i, r := range reqs {
		code, body := s.post(t, "/v1/solve", r)
		if code != http.StatusOK {
			t.Fatalf("solve %d: %d\n%s", i, code, body)
		}
		want := "cache"
		if i == 0 {
			want = "computed"
		}
		if got := decodeSolve(t, body).Source; got != want {
			t.Fatalf("solve %d source = %q, want %q", i, got, want)
		}
	}
}

func TestSolveInfeasibleIsStill200(t *testing.T) {
	s := newTestServer(t, Config{})
	// b=7 violates LU's divisibility constraints: infeasible, not an
	// HTTP error.
	code, body := s.post(t, "/v1/solve", SolveRequest{App: "lu", B: 7})
	if code != http.StatusOK {
		t.Fatalf("infeasible solve: %d\n%s", code, body)
	}
	r := decodeSolve(t, body)
	if r.Outcome.OK || r.Outcome.Err == "" {
		t.Fatalf("outcome = %+v, want infeasible with reason", r.Outcome)
	}
}

func TestSolveValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"unknown app", `{"app":"cholesky"}`},
		{"unknown machine", `{"machine":"xd9"}`},
		{"unknown mode", `{"mode":"gpu"}`},
		{"unknown method", `{"method":"oracle"}`},
		{"negative n", `{"n":-5}`},
		{"bf below sentinel", `{"bf":-2}`},
		{"unknown field", `{"block_size":64}`},
		{"malformed json", `{"app":`},
	}
	for _, tc := range cases {
		resp, err := http.Post(s.ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400\n%s", tc.name, resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Code != CodeBadRequest {
			t.Fatalf("%s: code %q, want %q", tc.name, e.Code, CodeBadRequest)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := s.get(t, "/v1/solve")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: %d", code)
	}
	if e := decodeErr(t, body); e.Code != CodeMethodNotAllowed {
		t.Fatalf("code = %q", e.Code)
	}
}

func TestUnknownPath404(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := s.get(t, "/v1/frontier")
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
	if e := decodeErr(t, body); e.Code != CodeNotFound {
		t.Fatalf("code = %q", e.Code)
	}
}

// TestSolveCoalescing blocks the evaluator and fires concurrent
// identical requests: exactly one evaluation must run, with every
// other request reporting "coalesced". Run with -race.
func TestSolveCoalescing(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 16})
	var evals atomic.Int64
	release := make(chan struct{})
	s.svc.evalFn = func(pt sweep.Point, method string) sweep.Outcome {
		evals.Add(1)
		<-release
		return sweep.Outcome{OK: true, GFLOPS: 42}
	}

	const callers = 8
	sources := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := s.post(t, "/v1/solve", SolveRequest{App: "mm"})
			if code != http.StatusOK {
				t.Errorf("caller %d: status %d", i, code)
				return
			}
			sources[i] = decodeSolve(t, body).Source
		}(i)
	}
	// Give every request time to reach the flight, then release the
	// single evaluation.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := evals.Load(); n != 1 {
		t.Fatalf("evaluation ran %d times for %d identical requests, want 1", n, callers)
	}
	counts := map[string]int{}
	for _, src := range sources {
		counts[src]++
	}
	if counts["computed"] != 1 || counts["coalesced"] != callers-1 {
		t.Fatalf("sources = %v, want 1 computed + %d coalesced", counts, callers-1)
	}
}

// TestAdmissionShed fills the single in-flight slot and the
// single-entry queue, then asserts the next request is shed with 429
// and Retry-After.
func TestAdmissionShed(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.svc.evalFn = func(pt sweep.Point, method string) sweep.Outcome {
		started <- struct{}{}
		<-release
		return sweep.Outcome{OK: true}
	}
	// Release blocked evaluations exactly once, even on a failure
	// path, so the httptest server can drain at cleanup. Registered
	// after newTestServer's cleanup, so it runs before ts.Close.
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	t.Cleanup(releaseAll)

	var wg sync.WaitGroup
	// Occupy the in-flight slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.post(t, "/v1/solve", SolveRequest{App: "lu"})
	}()
	<-started
	// Occupy the queue slot with a distinct key.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.post(t, "/v1/solve", SolveRequest{App: "fw"})
	}()
	// Wait for the queued request to register.
	deadline := time.Now().Add(2 * time.Second)
	for s.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third distinct request: queue is full, must shed.
	b, _ := json.Marshal(SolveRequest{App: "mm"})
	resp, err := http.Post(s.ts.URL+"/v1/solve", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if e := decodeErr(t, body); e.Code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", e.Code, CodeOverloaded)
	}
	if got := s.svc.m.shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	releaseAll()
	wg.Wait()
}

// TestDeadline504 exceeds a tight per-request deadline against a
// blocked evaluator.
func TestDeadline504(t *testing.T) {
	s := newTestServer(t, Config{})
	release := make(chan struct{})
	s.svc.evalFn = func(pt sweep.Point, method string) sweep.Outcome {
		<-release
		return sweep.Outcome{OK: true}
	}
	defer close(release)

	b, _ := json.Marshal(SolveRequest{App: "lu"})
	resp, err := http.Post(s.ts.URL+"/v1/solve?timeout_ms=50", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504\n%s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != CodeDeadlineExceeded {
		t.Fatalf("code = %q, want %q", e.Code, CodeDeadlineExceeded)
	}
	if got := s.svc.m.deadline.Value(); got < 1 {
		t.Fatalf("deadline counter = %d, want >= 1", got)
	}
}

func TestDesignRanksByGFLOPS(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := s.post(t, "/v1/design", DesignRequest{
		Grid: sweep.Grid{Apps: []string{"lu"}, PEs: []int{2, 4, 8}},
		Top:  3,
	})
	if code != http.StatusOK {
		t.Fatalf("design: %d\n%s", code, body)
	}
	var r DesignResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Points != 3 || r.Feasible == 0 || len(r.Best) == 0 {
		t.Fatalf("response = %+v, want 3 points with feasible ranking", r)
	}
	for i := 1; i < len(r.Best); i++ {
		if r.Best[i].Outcome.GFLOPS > r.Best[i-1].Outcome.GFLOPS {
			t.Fatalf("ranking not descending at %d: %v > %v",
				i, r.Best[i].Outcome.GFLOPS, r.Best[i-1].Outcome.GFLOPS)
		}
		if r.Best[i].Rank != i+1 {
			t.Fatalf("rank[%d] = %d", i, r.Best[i].Rank)
		}
	}
}

func TestDesignGridTooLarge(t *testing.T) {
	s := newTestServer(t, Config{MaxDesignPoints: 2})
	code, body := s.post(t, "/v1/design", DesignRequest{
		Grid: sweep.Grid{PEs: []int{2, 4, 8}},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400\n%s", code, body)
	}
	if e := decodeErr(t, body); !strings.Contains(e.Message, "/v1/sweep") {
		t.Fatalf("message %q should redirect to /v1/sweep", e.Message)
	}
}

// TestDesignGridOverflowRejected: a grid whose cross product is 2^64
// points (256 values on eight axes, an ~8 KB body) must be refused
// up front, not enumerated.
func TestDesignGridOverflowRejected(t *testing.T) {
	var g sweep.Grid
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
	s := newTestServer(t, Config{})
	for _, path := range []string{"/v1/design", "/v1/sweep"} {
		var req any = DesignRequest{Grid: g}
		if path == "/v1/sweep" {
			req = SweepRequest{Grid: g}
		}
		code, body := s.post(t, path, req)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400\n%.200s", path, code, body)
		}
		if e := decodeErr(t, body); !strings.Contains(e.Message, "more than") {
			t.Fatalf("%s: message %q should report the point limit", path, e.Message)
		}
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := s.post(t, "/v1/sweep", SweepRequest{
		Grid: sweep.Grid{Apps: []string{"lu"}, PEs: []int{2, 4}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", code, body)
	}
	var job JobResponse
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Job == "" || job.Points != 2 {
		t.Fatalf("job = %+v", job)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body = s.get(t, "/v1/sweep/"+job.Job)
		if code != http.StatusOK {
			t.Fatalf("poll: %d\n%s", code, body)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Status != JobDone || job.Result == nil || len(job.Result.Records) != 2 {
		t.Fatalf("finished job = %+v", job)
	}

	code, body = s.get(t, "/v1/sweep/j999")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
	if e := decodeErr(t, body); e.Code != CodeNotFound {
		t.Fatalf("code = %q", e.Code)
	}
}

func TestSweepRunningJobsCap(t *testing.T) {
	s := newTestServer(t, Config{MaxRunningJobs: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s.svc.runSweep = func(ctx context.Context, g sweep.Grid, opts sweep.Options) (*sweep.Result, error) {
		started <- struct{}{}
		<-release
		return sweep.Run(ctx, g, opts)
	}
	defer close(release)

	code, body := s.post(t, "/v1/sweep", SweepRequest{Grid: sweep.Grid{PEs: []int{2}}})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d\n%s", code, body)
	}
	<-started
	code, body = s.post(t, "/v1/sweep", SweepRequest{Grid: sweep.Grid{PEs: []int{4}}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429\n%s", code, body)
	}
	if e := decodeErr(t, body); e.Code != CodeOverloaded {
		t.Fatalf("code = %q", e.Code)
	}
}

// TestMetricsFamilies drives some traffic and asserts every
// codesignd family OPERATIONS.md documents is exported.
func TestMetricsFamilies(t *testing.T) {
	s := newTestServer(t, Config{})
	s.post(t, "/v1/solve", SolveRequest{App: "lu"})
	s.post(t, "/v1/solve", SolveRequest{App: "lu"})
	code, body := s.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	for _, family := range []string{
		"codesignd_requests_total",
		"codesignd_request_seconds",
		"codesignd_inflight",
		"codesignd_queued",
		"codesignd_shed_total",
		"codesignd_deadline_total",
		"codesignd_solve_cache_hits_total",
		"codesignd_solve_cache_misses_total",
		"codesignd_solve_cache_coalesced_total",
		"codesignd_solve_cache_entries",
		"codesignd_solve_cache_evictions",
		"codesignd_solve_cache_hit_rate",
		"codesignd_memo_place_hit_rate",
		"codesignd_memo_partition_hit_rate",
		"codesignd_sweep_jobs_submitted_total",
		"codesignd_sweep_jobs_running",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(text, `codesignd_requests_total{endpoint="solve",code="200"} 2`) {
		t.Errorf("per-endpoint request counter missing or wrong:\n%s", text)
	}
}

// TestSolveDeterministicAcrossServers asserts two fresh servers give
// byte-identical bodies for the same request — the property the
// loadgen determinism report leans on.
func TestSolveDeterministicAcrossServers(t *testing.T) {
	req := SolveRequest{App: "fw", PEs: 8}
	var bodies [2][]byte
	for i := range bodies {
		s := newTestServer(t, Config{})
		_, bodies[i] = s.post(t, "/v1/solve", req)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("responses differ:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestCacheBoundEviction keeps the solve cache at one entry and
// alternates keys, asserting evictions happen and the bound holds.
func TestCacheBoundEviction(t *testing.T) {
	s := newTestServer(t, Config{CacheBound: 1})
	for i := 0; i < 3; i++ {
		s.post(t, "/v1/solve", SolveRequest{App: "lu"})
		s.post(t, "/v1/solve", SolveRequest{App: "mm"})
	}
	if n := s.svc.solves.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, bound is 1", n)
	}
	if st := s.svc.CacheStats(); st.Evictions < 4 {
		t.Fatalf("stats = %+v, want >= 4 evictions from alternating keys", st)
	}
}

func TestObsSurfaceMounted(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, path := range []string{"/metrics", "/metrics.json", "/healthz", "/statusz"} {
		if code, _ := s.get(t, path); code != http.StatusOK {
			t.Errorf("%s: %d", path, code)
		}
	}
}

func ExampleService_Solve() {
	svc := NewService(Config{}, obs.NewRegistry())
	defer svc.Close()
	resp, err := svc.Solve(context.Background(), SolveRequest{App: "lu"})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(resp.Source, resp.Outcome.OK)
	// Output: computed true
}

func TestCacheSnapshotRoundtrip(t *testing.T) {
	s := newTestServer(t, Config{})
	s.post(t, "/v1/solve", SolveRequest{App: "lu", PEs: 4})
	s.post(t, "/v1/solve", SolveRequest{App: "lu", PEs: 8})

	var snap bytes.Buffer
	n, err := s.svc.SaveCache(&snap)
	if err != nil || n != 2 {
		t.Fatalf("SaveCache: n=%d err=%v, want 2 entries", n, err)
	}

	// A fresh service seeded from the snapshot serves the same
	// requests straight from cache.
	s2 := newTestServer(t, Config{})
	if n, err := s2.svc.LoadCache(bytes.NewReader(snap.Bytes())); err != nil || n != 2 {
		t.Fatalf("LoadCache: n=%d err=%v", n, err)
	}
	code, body := s2.post(t, "/v1/solve", SolveRequest{App: "lu", PEs: 4})
	if code != http.StatusOK {
		t.Fatalf("seeded solve: %d\n%s", code, body)
	}
	if r := decodeSolve(t, body); r.Source != "cache" {
		t.Fatalf("seeded solve source = %q, want cache", r.Source)
	}
	if st := s2.svc.CacheStats(); st.Misses != 0 {
		t.Fatalf("seeded cache stats = %+v, want zero misses", st)
	}
}

func TestLoadCacheRejectsBadSnapshot(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.svc.LoadCache(strings.NewReader("not json")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if _, err := s.svc.LoadCache(strings.NewReader(`{"version":99,"entries":[]}`)); err == nil {
		t.Error("future snapshot version accepted")
	}
}

func TestDesignScreened(t *testing.T) {
	s := newTestServer(t, Config{})
	grid := sweep.Grid{Apps: []string{"lu"}, PEs: []int{2, 4, 6, 8}, L: []int{-1, 2, 4}}
	code, body := s.post(t, "/v1/design", DesignRequest{Grid: grid, Top: 3, Screen: true})
	if code != http.StatusOK {
		t.Fatalf("screened design: %d\n%s", code, body)
	}
	var r DesignResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Screen == nil {
		t.Fatal("screened design response has no screen summary")
	}
	if r.Screen.Points != 12 || r.Screen.Candidates != r.Points {
		t.Fatalf("screen summary = %+v with %d points", r.Screen, r.Points)
	}
	if len(r.Best) == 0 || r.Best[0].Outcome.GFLOPS <= 0 {
		t.Fatalf("no ranked designs: %+v", r.Best)
	}

	// The screened top-1 must agree with the unscreened top-1: the
	// best design is on the frontier, which screening always refines.
	code, body = s.post(t, "/v1/design", DesignRequest{Grid: grid, Top: 1})
	if code != http.StatusOK {
		t.Fatalf("full design: %d", code)
	}
	var full DesignResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Best[0].Point.Index != r.Best[0].Point.Index {
		t.Fatalf("screened best index %d != full best index %d",
			r.Best[0].Point.Index, full.Best[0].Point.Index)
	}
}

func TestScreenValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	grid := sweep.Grid{Apps: []string{"lu"}, PEs: []int{2, 4}}
	code, body := s.post(t, "/v1/design", DesignRequest{Grid: grid, RefineMargin: 0.2})
	if code != http.StatusBadRequest {
		t.Fatalf("margin without screen: %d\n%s", code, body)
	}
	code, body = s.post(t, "/v1/sweep", SweepRequest{Grid: grid, Screen: true, RefineMargin: -1})
	if code != http.StatusBadRequest {
		t.Fatalf("negative margin: %d\n%s", code, body)
	}
}

func TestSweepJobScreened(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := s.post(t, "/v1/sweep", SweepRequest{
		Grid:   sweep.Grid{Apps: []string{"lu"}, PEs: []int{2, 4, 6, 8}},
		Screen: true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", code, body)
	}
	var job JobResponse
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.Status == JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("screened job never finished")
		}
		time.Sleep(10 * time.Millisecond)
		_, body = s.get(t, "/v1/sweep/"+job.Job)
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.Status != JobDone || job.Result == nil || job.Result.Screen == nil {
		t.Fatalf("finished screened job = %+v", job)
	}
	if job.Result.Screen.Points != 4 {
		t.Fatalf("screen summary = %+v, want 4 screened points", job.Result.Screen)
	}
}
